package grid

import "testing"

// Op codes of FuzzGridOps, taken modulo opCount from the first byte of
// each operation. Every cell coordinate is one signed byte.
const (
	opAdd    = iota // cell, id
	opRemove        // cell, id
	opBox           // cell, radius in quarter cells
	opRange         // low corner, one width for every axis
	opReset         //
	opCount
)

// fuzzDims are the dimensionalities FuzzGridOps picks from with its
// first byte: the three blocked ones and two above blockDims.
var fuzzDims = []int{1, 2, 3, 4, 6}

// runGridOps decodes data as a dimensionality and a trace of table
// operations and holds the table to the map reference after each
// collect and at the end. A trace that runs out of bytes mid-operation
// ends there.
func runGridOps(t *testing.T, data []byte) {
	if len(data) == 0 {
		return
	}
	d := fuzzDims[int(data[0])%len(fuzzDims)]
	data = data[1:]
	m := newModel(d, 1)
	cell := func() []int64 {
		c := make([]int64, d)
		for i := range c {
			c[i] = int64(int8(data[i]))
		}
		data = data[d:]
		return c
	}
	for len(data) > d+1 {
		op := data[0] % opCount
		data = data[1:]
		switch op {
		case opAdd:
			m.add(cell(), int32(data[0]%64))
		case opRemove:
			m.remove(cell(), int32(data[0]%64))
		case opBox:
			m.checkBox(t, cell(), float64(int(data[0])%(maxQuarters(d)+1))/4)
		case opRange:
			lo := cell()
			hi := make([]int64, d)
			for i := range hi {
				hi[i] = lo[i] + int64(int(data[0])%maxWidth(d))
			}
			m.checkRange(t, lo, hi)
		case opReset:
			m.reset()
			continue
		}
		data = data[1:]
	}
	// Every registration is where the reference says, and the slab
	// arena holds no others.
	total := 0
	for _, rc := range m.ref {
		total += len(rc.ids)
		m.checkRange(t, rc.c, rc.c)
	}
	held := 0
	for _, sl := range m.g.slabs {
		held += int(sl.n)
	}
	if held != total {
		t.Fatalf("slabs hold %d ids, reference has %d", held, total)
	}
}

// gridTrace builds FuzzGridOps seeds.
type gridTrace struct {
	d    int
	data []byte
}

func newGridTrace(d int) *gridTrace {
	for i, fd := range fuzzDims {
		if fd == d {
			return &gridTrace{d: d, data: []byte{byte(i)}}
		}
	}
	panic("not a fuzzed dimensionality")
}

// cell encodes the cell whose first coordinate is x, the others
// alternating between x's neighbours so both parities occur on every
// axis.
func (tr *gridTrace) cell(x int) {
	for k := 0; k < tr.d; k++ {
		tr.data = append(tr.data, byte(int8(x+k*(1-2*(k&1)))))
	}
}

func (tr *gridTrace) op(code byte, x int, arg byte) *gridTrace {
	tr.data = append(tr.data, code)
	tr.cell(x)
	tr.data = append(tr.data, arg)
	return tr
}

func (tr *gridTrace) bare(code byte) *gridTrace {
	tr.data = append(tr.data, code)
	return tr
}

// FuzzGridOps: any sequence of AddPoint / RemovePoint / CollectBox /
// CollectRange / Reset leaves the table answering like the
// map reference.
func FuzzGridOps(f *testing.F) {
	for _, d := range fuzzDims {
		// Negative and mixed-sign cells on both parities, probed by a
		// zero-radius box, a probe-wide box and ranges 1–5 cells wide.
		tr := newGridTrace(d)
		for x := -4; x <= 4; x++ {
			tr.op(opAdd, x, byte(x+4)).op(opAdd, x, byte(x+20))
		}
		for x := -5; x <= 5; x++ {
			tr.op(opBox, x, 0).op(opBox, x, 4).op(opBox, x, 6).op(opRange, x, byte(x+5))
		}
		f.Add(tr.data)

		// Removals that leave dead cells inside live blocks and whole
		// dead blocks, then enough new blocks to force the rebuild that
		// drops the dead ones.
		tr = newGridTrace(d)
		for x := -6; x < 6; x++ {
			tr.op(opAdd, x, byte(x+6)).op(opAdd, x, byte(x+30))
		}
		for x := -6; x < 6; x++ {
			if x&3 != 0 {
				tr.op(opRemove, x, byte(x+6)).op(opRemove, x, byte(x+30))
			}
		}
		tr.op(opRemove, 50, 1) // absent block
		for x := -6; x < 6; x++ {
			tr.op(opRange, x, 4)
		}
		for x := -128; x < 128; x += 2 {
			tr.op(opAdd, x, byte(x&63))
		}
		for x := -128; x < 128; x += 17 {
			tr.op(opBox, x, 4).op(opRange, x, 2)
		}
		f.Add(tr.data)

		// A long slab chain with interior removals, Reset, reuse.
		tr = newGridTrace(d)
		for i := 0; i < 40; i++ {
			tr.op(opAdd, -1, byte(i))
		}
		for i := 0; i < 40; i += 3 {
			tr.op(opRemove, -1, byte(i))
		}
		tr.op(opBox, -1, 0)
		tr.bare(opReset).op(opBox, -1, 4).op(opAdd, -1, 9).op(opAdd, 0, 9).op(opRange, -2, 3)
		f.Add(tr.data)
	}
	f.Fuzz(runGridOps)
}
