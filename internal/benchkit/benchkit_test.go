package benchkit

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// TestEveryExperimentRuns executes every registered experiment at a
// tiny scale: the harness must complete and produce a non-trivial
// report for each figure and table of the paper.
func TestEveryExperimentRuns(t *testing.T) {
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			cfg := Config{Out: &buf, Scale: 0.02, Seed: 1}
			if err := e.Run(cfg); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			out := buf.String()
			if !strings.Contains(out, e.ID) {
				t.Errorf("%s: report missing banner:\n%s", e.ID, out)
			}
			if len(strings.Split(out, "\n")) < 5 {
				t.Errorf("%s: suspiciously short report:\n%s", e.ID, out)
			}
		})
	}
}

// TestExperimentsArePaperArtifacts pins the registry to the paper's
// Section 8: four Figure 9 panels, four Figure 10 panels, Figures 11
// and 12 in two panels each, and the two tables — plus the one
// extension, the d sweep (dims), marked as such. Anything else is a
// measurement bench/ owns (see docs/reproduction.md) and must not
// re-register here.
func TestExperimentsArePaperArtifacts(t *testing.T) {
	want := []string{
		"fig10a", "fig10b", "fig10c", "fig10d",
		"fig11a", "fig11b", "fig12a", "fig12b",
		"fig9a", "fig9b", "fig9c", "fig9d",
		"table1", "table2",
	}
	var got, extensions []string
	for _, e := range Experiments() {
		if e.Extension {
			extensions = append(extensions, e.ID)
		} else {
			got = append(got, e.ID)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("registered paper experiments = %v, want %v", got, want)
	}
	if !slices.Equal(extensions, []string{"dims"}) {
		t.Fatalf("registered extensions = %v, want [dims]", extensions)
	}
}

func TestFindUnknown(t *testing.T) {
	if _, ok := Find("nope"); ok {
		t.Fatal("Find accepted an unknown id")
	}
	if e, ok := Find("fig9a"); !ok || e.ID != "fig9a" {
		t.Fatalf("Find(fig9a) = %v %v", e, ok)
	}
}
