// Package incr keeps the names bench/ calls for the incremental
// grouping handle, which lives in the root package (sgb.Incremental,
// sgb.NewIncrementalAll, sgb.NewIncrementalAny). It goes when bench/
// calls those directly (ROADMAP item 1(b)).
package incr

import (
	"fmt"

	"github.com/sgb-db/sgb"
	"github.com/sgb-db/sgb/internal/core"
)

// Incremental is the root package's maintained grouping handle.
type Incremental = sgb.Incremental

// Semantics selects which similarity group-by operator New maintains.
type Semantics int

const (
	// All maintains SGB-All (DISTANCE-TO-ALL clique groups with
	// ON-OVERLAP arbitration).
	All Semantics = iota
	// Any maintains SGB-Any (DISTANCE-TO-ANY connected components).
	Any
)

// New returns an empty handle for the given semantics:
// sgb.NewIncrementalAll or sgb.NewIncrementalAny.
func New(sem Semantics, opt core.Options) (*Incremental, error) {
	switch sem {
	case All:
		return sgb.NewIncrementalAll(opt)
	case Any:
		return sgb.NewIncrementalAny(opt)
	}
	return nil, fmt.Errorf("incr: unknown semantics %d", int(sem))
}
