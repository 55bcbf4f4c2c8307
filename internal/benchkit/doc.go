// Package benchkit is the experiment harness that regenerates every
// table and figure of the paper's evaluation (Section 8) — Figures
// 9a–d, 10a–d, 11a/b, 12a/b and Tables 1–2, fourteen experiments — plus
// one extension marked as such (dims: the grid against the R-tree as
// the number of grouping attributes grows, which the paper leaves to
// future work). Each prints the same rows/series the paper reports —
// runtimes per similarity threshold, per data size, per method — as
// aligned text tables. The cmd/sgbbench binary and the root
// bench_test.go both drive this package.
//
// The strategy comparisons pin Parallelism = 1 so that a named
// strategy measures its own evaluation shape rather than the
// auto-parallel default, and cross-check group counts between runs, so
// a reported speedup can never come from a diverged grouping.
//
// This package is a reproduction, not the repository's performance
// record: that is the bench/ module and BENCHMARK.json (serving,
// recovery, ε sweeps and parallel scaling are measured there, through
// SQL). docs/reproduction.md maps each experiment to the benchmark
// metric that covers it.
package benchkit
