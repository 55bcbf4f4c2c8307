// Package analysis is the engine's repo-specific static-analysis
// suite: a small go/analysis-style framework (stdlib only — go/ast,
// go/parser, go/types with the source importer, so CI and local runs
// need no module downloads) plus the six analyzers that mechanically
// enforce the invariants ARCHITECTURE.md states in prose:
//
//   - lockorder: every Lock/RLock acquisition site respects the
//     documented partial order DB.wmu > Catalog.mu/Table.mu >
//     evalCache.mu > incrEntry.mu > exec.Grouping.mu, including locks
//     acquired by callees while a lock is held; inversions and double
//     acquisitions are flagged.
//   - snapshotsafe: outside internal/storage, table row storage is
//     reached only through Snapshot() or the mutation API — a direct
//     storage.Table.Rows access in a query path is an error.
//   - determinism: in the result-affecting packages (internal/core,
//     internal/exec, internal/partition, and the root engine package)
//     no map iteration without a justification, no time.Now, no global
//     math/rand draws — the bit-identical reproducibility contract of
//     SGB arbitration's strict (Key, A, B) total order must not leak
//     iteration order.
//   - stickyerr: a failed wal.Log append poisons the log; call sites
//     must consume the returned error, never discard it.
//   - hotpath: functions marked //sgb:allocfree (distance kernels,
//     grid probes) may not contain fmt calls, closures capturing
//     enclosing variables, interface conversions, or appends that can
//     grow an escaping slice.
//   - docs: the former cmd/doclint — package comments and doc
//     comments on every exported declaration.
//
// False positives are silenced in place with a justified marker:
//
//	//sgblint:allow <analyzer> <reason>
//
// on the offending line or the line above. A marker without a reason
// is itself an error, as is a marker that no longer suppresses
// anything (staleness) or names an unknown analyzer.
//
// Command cmd/sgblint drives the suite; internal/analysis/analysistest
// runs a single analyzer over a testdata fixture with // want
// expectations.
package analysis
