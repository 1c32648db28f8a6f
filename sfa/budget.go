package sfa

import "repro/internal/core"

// TableBudget is a hierarchical byte budget for lazily compiled rule
// sets (WithLazyCompile): every product state a lazy shard materializes
// is charged against it, and when a charge would exceed the limit the
// least-recently-scanned lazy automaton under the same root is evicted
// (whole-structure reset; its states rebuild from traffic). Budgets
// form a tree — internal/serve gives each tenant a Child of the process
// budget — and a charge must fit every ancestor, so a tenant can be
// bounded tightly without fragmenting the shared pool.
//
// A TableBudget is safe for concurrent use. The zero limit (or any
// limit <= 0) means unlimited: the budget only meters, never evicts.
type TableBudget struct {
	b *core.TableBudget
}

// NewTableBudget creates a root budget of limitBytes (<= 0 = unlimited,
// metering only).
func NewTableBudget(limitBytes int64) *TableBudget {
	return &TableBudget{b: core.NewTableBudget(limitBytes)}
}

// GlobalTableBudget returns the process-wide budget that lazy rule sets
// charge by default (when compiled without WithTableBudget). It starts
// unlimited; SetLimit bounds it.
func GlobalTableBudget() *TableBudget {
	return &TableBudget{b: core.GlobalTableBudget()}
}

// Child creates a sub-budget: charges against it count against both
// limits, so the child bounds one tenant while the parent bounds the
// process.
func (t *TableBudget) Child(limitBytes int64) *TableBudget {
	return &TableBudget{b: t.b.Child(limitBytes)}
}

// SetLimit replaces the budget's limit (<= 0 = unlimited). Lowering it
// does not evict immediately; the next charge that no longer fits does.
func (t *TableBudget) SetLimit(limitBytes int64) { t.b.SetLimit(limitBytes) }

// BudgetStats is a point-in-time snapshot of one budget node.
type BudgetStats struct {
	LimitBytes int64 // configured limit; <= 0 = unlimited
	UsedBytes  int64 // bytes currently charged (this node and below)
	Fills      int64 // lazy states materialized under this node
	Evictions  int64 // whole-structure resets forced under this node

	// FillNs and EvictNs are log₂ latency histograms of the fills and
	// evictions charged under this node (a child's observations also
	// land in every ancestor); StallNs is total wall time scans spent
	// inside eviction, the budget-pressure signal.
	FillNs  HistogramSnapshot
	EvictNs HistogramSnapshot
	StallNs int64
}

// Stats reports the budget's current usage and lifetime counters.
func (t *TableBudget) Stats() BudgetStats {
	s := t.b.Stats()
	return BudgetStats{
		LimitBytes: s.Limit,
		UsedBytes:  s.Used,
		Fills:      s.Fills,
		Evictions:  s.Evictions,
		FillNs:     s.FillNs,
		EvictNs:    s.EvictNs,
		StallNs:    s.StallNs,
	}
}

// inner unwraps for internal threading; nil-safe.
func (t *TableBudget) inner() *core.TableBudget {
	if t == nil {
		return nil
	}
	return t.b
}
