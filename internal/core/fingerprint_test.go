package core

import (
	"reflect"
	"testing"
)

// groupingNeutral lists the Options fields that cannot change which
// groups an evaluation produces, and are therefore absent from
// Fingerprint on purpose.
var groupingNeutral = map[string]bool{
	"Stats":       true, // a counter sink
	"Parallelism": true, // groupings are bit-identical at every worker count
}

// TestFingerprintCoversOptions perturbs every Options field in turn:
// the fingerprint must change unless the field is listed as
// grouping-neutral. A field added to Options and forgotten in both
// places would let the evaluator cache serve one configuration's
// groups to another.
func TestFingerprintCoversOptions(t *testing.T) {
	base := Options{}.Fingerprint()
	typ := reflect.TypeOf(Options{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		var o Options
		v := reflect.ValueOf(&o).Elem().Field(i)
		switch v.Kind() {
		case reflect.Int, reflect.Int64:
			v.SetInt(1)
		case reflect.Float64:
			v.SetFloat(1.5)
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Ptr:
			v.Set(reflect.New(f.Type.Elem()))
		default:
			t.Fatalf("Options.%s has kind %v: teach this test to perturb it", f.Name, v.Kind())
		}
		changed := o.Fingerprint() != base
		switch {
		case groupingNeutral[f.Name] && changed:
			t.Errorf("Options.%s is listed as grouping-neutral but changes the fingerprint", f.Name)
		case !groupingNeutral[f.Name] && !changed:
			t.Errorf("Options.%s is neither fingerprinted nor listed as grouping-neutral", f.Name)
		}
	}
}
