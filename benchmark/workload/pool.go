package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/graph"
	"repro/internal/query/exec"
	"repro/internal/query/procedures"
)

// pooled is one benchmark query with its pre-drawn parameter bindings and
// the result digest the oracle expects for each.
type pooled struct {
	procedures.Query
	class uint8
	bind  []map[string]graph.Value
	want  []uint64
}

// drawPool pre-draws n bindings of each query from rng.
func drawPool(qs []procedures.Query, class uint8, n int, rng *rand.Rand, sc procedures.Scale) []pooled {
	out := make([]pooled, len(qs))
	for i, q := range qs {
		out[i] = pooled{Query: q, class: class, bind: make([]map[string]graph.Value, n), want: make([]uint64, n)}
		for b := range out[i].bind {
			out[i].bind[b] = q.Params(rng, sc)
		}
	}
	return out
}

// opRef names one scheduled operation: a query and one of its bindings.
type opRef struct{ q, b uint16 }

// FNV-1a, 64 bit.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func mix(h, x uint64) uint64 { return (h ^ x) * fnvPrime }

func hashString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = mix(h, uint64(s[i]))
	}
	return mix(h, uint64(len(s)))
}

func hashValue(h uint64, v graph.Value) uint64 {
	h = mix(h, uint64(v.K))
	h = mix(h, uint64(v.I))
	h = mix(h, math.Float64bits(v.F))
	h = hashString(h, v.S)
	for _, e := range v.Lst {
		h = hashValue(h, e)
	}
	return h
}

// hashRows digests a result as a multiset of rows: engines may legitimately
// order ties differently, so row order does not enter the digest.
func hashRows(rows []exec.Row) uint64 {
	sum := mix(fnvOffset, uint64(len(rows)))
	for _, row := range rows {
		h := uint64(fnvOffset)
		for _, v := range row {
			h = hashValue(h, v)
		}
		sum += h * 0x9e3779b97f4a7c15
	}
	return sum
}

// hashParams digests a binding with its keys in ascending order.
func hashParams(h uint64, params map[string]graph.Value) uint64 {
	keys := make([]string, 0, len(params))
	for k := range params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		h = hashValue(hashString(h, k), params[k])
	}
	return h
}

// hashSchedule digests what the seed decided: every pooled binding, the
// operation schedule, and whatever else the caller adds (the dataset's
// digest, the update stream's seed).
func hashSchedule(name string, pools []pooled, sched []opRef, extra ...uint64) uint64 {
	h := hashString(fnvOffset, name)
	for _, p := range pools {
		h = hashString(h, p.Name)
		for _, b := range p.bind {
			h = hashParams(h, b)
		}
	}
	for _, o := range sched {
		h = mix(mix(h, uint64(o.q)), uint64(o.b))
	}
	for _, x := range extra {
		h = mix(h, x)
	}
	return h
}

// hashBatch digests a generated dataset: its size and every edge.
func hashBatch(b *graph.Batch) uint64 {
	h := mix(mix(fnvOffset, uint64(len(b.Vertices))), uint64(len(b.Edges)))
	for _, e := range b.Edges {
		h = mix(mix(mix(h, uint64(e.Label)), uint64(e.Src)), uint64(e.Dst))
	}
	return h
}

// paramKey renders a binding so equal bindings share one oracle result.
func paramKey(params map[string]graph.Value) string {
	return fmt.Sprintf("%016x", hashParams(1, params))
}
