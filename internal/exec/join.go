package exec

import (
	"github.com/sgb-db/sgb/internal/types"
)

// HashJoin is an inner equi-join: it builds a hash table on the left
// input's key values and probes with the right input. Output rows are
// the concatenation leftRow ++ rightRow. An optional Residual predicate
// (over the concatenated row) filters matches with non-equi conditions.
type HashJoin struct {
	Left, Right         Operator
	LeftKeys, RightKeys []Scalar
	Residual            Scalar // may be nil

	table   map[string][]types.Row
	keyVals types.Row   // key scratch: the evaluated key expressions
	key     []byte      // and their encoding
	current []types.Row // pending matches for the current probe row
	probe   types.Row
	idx     int
}

// Open materializes and hashes the left (build) side.
func (j *HashJoin) Open() error {
	j.table = make(map[string][]types.Row)
	j.current = nil
	j.idx = 0
	if err := j.Left.Open(); err != nil {
		return err
	}
	defer j.Left.Close()
	for {
		row, err := j.Left.Next()
		if err != nil {
			return err
		}
		if row == nil {
			break
		}
		if err := j.evalKey(j.LeftKeys, row); err != nil {
			return err
		}
		j.table[string(j.key)] = append(j.table[string(j.key)], row)
	}
	return j.Right.Open()
}

// Close releases the hash table and closes the probe side.
func (j *HashJoin) Close() error { j.table = nil; return j.Right.Close() }

// Next probes the hash table with right rows, emitting build ++ probe
// rows that satisfy the residual predicate.
func (j *HashJoin) Next() (types.Row, error) {
	for {
		for j.idx < len(j.current) {
			build := j.current[j.idx]
			j.idx++
			out := make(types.Row, 0, len(build)+len(j.probe))
			out = append(out, build...)
			out = append(out, j.probe...)
			if j.Residual != nil {
				v, err := j.Residual(out)
				if err != nil {
					return nil, err
				}
				if !v.Truthy() {
					continue
				}
			}
			return out, nil
		}
		probe, err := j.Right.Next()
		if err != nil || probe == nil {
			return nil, err
		}
		if err := j.evalKey(j.RightKeys, probe); err != nil {
			return nil, err
		}
		j.probe = probe
		j.current = j.table[string(j.key)]
		j.idx = 0
	}
}

// evalKey evaluates the key expressions over row and leaves their
// encoding for hashing in j.key.
func (j *HashJoin) evalKey(keys []Scalar, row types.Row) error {
	j.keyVals = j.keyVals[:0]
	for _, k := range keys {
		v, err := k(row)
		if err != nil {
			return err
		}
		j.keyVals = append(j.keyVals, v)
	}
	j.key = appendRowKey(j.key[:0], j.keyVals)
	return nil
}

// NestedLoopJoin is the fallback inner join for conditions without
// equi-join keys: the right side is materialized once and rescanned per
// left row; Cond (may be nil = cross join) filters the concatenation.
type NestedLoopJoin struct {
	Left, Right Operator
	Cond        Scalar

	rightRows []types.Row
	leftRow   types.Row
	idx       int
}

// Open opens the outer side and materializes the inner side.
func (j *NestedLoopJoin) Open() error {
	j.leftRow = nil
	j.idx = 0
	if err := j.Right.Open(); err != nil {
		return err
	}
	defer j.Right.Close()
	j.rightRows = nil
	for {
		row, err := j.Right.Next()
		if err != nil {
			return err
		}
		if row == nil {
			break
		}
		j.rightRows = append(j.rightRows, row)
	}
	return j.Left.Open()
}

// Close releases the inner materialization and closes the outer side.
func (j *NestedLoopJoin) Close() error { j.rightRows = nil; return j.Left.Close() }

// Next emits the next left ++ right row pair passing the condition.
func (j *NestedLoopJoin) Next() (types.Row, error) {
	for {
		if j.leftRow == nil {
			row, err := j.Left.Next()
			if err != nil || row == nil {
				return nil, err
			}
			j.leftRow = row
			j.idx = 0
		}
		for j.idx < len(j.rightRows) {
			right := j.rightRows[j.idx]
			j.idx++
			out := make(types.Row, 0, len(j.leftRow)+len(right))
			out = append(out, j.leftRow...)
			out = append(out, right...)
			if j.Cond != nil {
				v, err := j.Cond(out)
				if err != nil {
					return nil, err
				}
				if !v.Truthy() {
					continue
				}
			}
			return out, nil
		}
		j.leftRow = nil
	}
}
