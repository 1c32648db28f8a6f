// Package obs provides the allocation-free, lock-free instrumentation
// primitives the scan and build paths record into: sharded counters,
// gauges, fixed-bucket log₂ histograms, and a lossy state-frequency
// table for boundary-state statistics.
//
// Every type in this package is usable at its zero value, updated with
// plain atomic operations (no locks, no maps, no channels), and
// performs zero heap allocations on the record path — the pooled match
// hot path stays at 0 allocs/op with instrumentation enabled, and
// TestInstrumentedStreamZeroAlloc (package sfa) proves it. Reads
// (Snapshot, Load) are cheap but deliberately relaxed: a snapshot taken
// concurrently with writers is a consistent-enough view for monitoring,
// not a linearizable cut.
//
// obs imports only the standard library and sits below every other
// package in the repo (core, engine, multi, prefilter, serve all may
// import it; it imports none of them).
package obs
