package incr

import (
	"errors"
	"fmt"

	"github.com/sgb-db/sgb/internal/core"
)

// State is the portable snapshot of an Incremental handle: the
// semantics, the creation-time options, and — once the first batch has
// fixed the dimensionality — the underlying evaluator's exported state.
// The checkpoint writer serializes it; Restore rebuilds a handle that
// continues exactly where the original stood.
type State struct {
	Sem Semantics
	Opt core.Options // creation-time snapshot, Stats stripped
	// Exactly one of All/Any is non-nil once a batch has been appended;
	// both nil for a still-empty handle.
	All *core.AllState
	Any *core.AnyState
}

// ErrNoExportFormat is returned by ExportState for a handle NewLevels
// made: State holds one level.
var ErrNoExportFormat = errors.New("incr: a handle kept at several ε levels has no export format")

// ExportState snapshots the handle. It fails if the public Opt field
// was mutated (the same guard Append and Result apply — a snapshot of
// inconsistent state would be unrecoverable garbage), and for a handle
// NewLevels made (ErrNoExportFormat).
func (x *Incremental) ExportState() (*State, error) {
	if x.Opt != x.snap {
		return nil, ErrOptionsMutated
	}
	if x.levels != nil {
		return nil, ErrNoExportFormat
	}
	opt := x.snap
	opt.Stats = nil
	s := &State{Sem: x.sem, Opt: opt}
	switch ev := x.ev.(type) {
	case *core.AllEvaluator:
		s.All = ev.ExportState()
	case *core.AnyEvaluator:
		s.Any = ev.ExportState()
	}
	return s, nil
}

// Restore rebuilds an Incremental from a snapshot. The handle's options
// are s.Opt, and the evaluator runs under them whatever options its own
// state records, so a caller may restore a state under options that
// group alike (core.Options.Maintained). Corrupt snapshots (both
// evaluators present, semantics/evaluator mismatch, or an evaluator
// state the core restore rejects) return an error.
func Restore(s *State) (*Incremental, error) {
	if s == nil {
		return nil, errors.New("incr: nil state")
	}
	x, err := New(s.Sem, s.Opt)
	if err != nil {
		return nil, err
	}
	if s.All != nil && s.Any != nil {
		return nil, errors.New("incr: state holds both evaluator kinds")
	}
	switch {
	case s.All != nil:
		if s.Sem != All {
			return nil, fmt.Errorf("incr: %v state with an SGB-All evaluator", s.Sem)
		}
		all := *s.All
		all.Opt = x.evalOpt()
		ev, err := core.RestoreAllEvaluator(&all)
		if err != nil {
			return nil, err
		}
		x.ev, x.dims = ev, s.All.Dims
	case s.Any != nil:
		if s.Sem != Any {
			return nil, fmt.Errorf("incr: %v state with an SGB-Any evaluator", s.Sem)
		}
		anyState := *s.Any
		anyState.Opt = x.evalOpt()
		ev, err := core.RestoreAnyEvaluator(&anyState)
		if err != nil {
			return nil, err
		}
		x.ev, x.dims = ev, s.Any.Dims
	}
	return x, nil
}
