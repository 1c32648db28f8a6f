package engine

import "repro/internal/obs"

// attribution is one engine's always-on scan-cost account: where the
// shard's compose time went, how many chunks and bytes it actually
// walked, and how many prefilter candidate windows it verified. Unlike
// the opt-in ScanStats aggregate (shared across a tenant's shards and
// reset per generation), attribution lives on the engine itself — hot
// reloads reuse engines by pointer, so the account survives reloads and
// answers "which shard costs" across the set's whole lifetime. All
// fields are obs striped counters: recording is wait-free and
// allocation-free, safe on the pooled hot paths.
//
// The engines never book it themselves — their walks read no clock, so
// a single pattern pays nothing for an account nobody reads. The callers
// that own shards do, through Charge: Lockstep for the passes it runs
// (shared walks and the single-engine calls it falls back to), the rule
// set for its direct calls and its candidate windows.
type attribution struct {
	composeNs obs.Counter // ns spent scanning + ⊙-folding (one-shot runs, stream chunks, window walks)
	chunks    obs.Counter // one-shot runs + stream chunks that reached the automaton
	bytes     obs.Counter // input bytes this engine walked (chunks + candidate windows)
	windows   obs.Counter // prefilter candidate windows verified
}

// Cost is a unit of work a caller did with an engine, as booked by
// Charge: walk time, one-shot runs and stream chunks, bytes walked, and
// candidate windows verified.
type Cost struct {
	Ns, Chunks, Bytes, Windows int64
}

// charge adds c to the account; zero terms touch no counter.
//
//sfa:noalloc
func (a *attribution) charge(c Cost) {
	if c.Ns != 0 {
		a.composeNs.Add(c.Ns)
	}
	if c.Chunks != 0 {
		a.chunks.Add(c.Chunks)
	}
	if c.Bytes != 0 {
		a.bytes.Add(c.Bytes)
	}
	if c.Windows != 0 {
		a.windows.Add(c.Windows)
	}
}

// fill copies the account into an Info.
func (a *attribution) fill(inf *Info) {
	inf.ComposeNs = a.composeNs.Load()
	inf.ScanChunks = a.chunks.Load()
	inf.ScanBytes = a.bytes.Load()
	inf.CandWindows = a.windows.Load()
}

// Charge books work done with the engine to its cost account.
//
//sfa:noalloc
func (m *MultiSFA) Charge(c Cost) { m.attr.charge(c) }

// Charge books work done with the engine to its cost account.
//
//sfa:noalloc
func (m *LazyMultiSFA) Charge(c Cost) { m.attr.charge(c) }
