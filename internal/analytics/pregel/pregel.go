// Package pregel implements the vertex-centric "think-like-a-vertex" API of
// §6 on top of the GRAPE engine, mirroring how GraphScope Flex layers the
// Pregel model over PIE: a Pregel superstep is one IncEval round in which
// each fragment iterates its active inner vertices.
package pregel

import (
	"math"

	"repro/internal/analytics/grape"
	"repro/internal/graph"
	"repro/internal/grin"
)

// VertexContext is handed to Compute for one vertex in one superstep; it is
// valid only during that call.
type VertexContext struct {
	ctx   *grape.Context
	g     grin.Graph
	v     graph.VID
	step  int
	halt  bool
	value *float64
}

// Vertex returns the vertex being computed.
func (vc *VertexContext) Vertex() graph.VID { return vc.v }

// Superstep returns the current superstep (0-based).
func (vc *VertexContext) Superstep() int { return vc.step }

// Value returns the vertex's current value.
func (vc *VertexContext) Value() float64 { return *vc.value }

// SetValue updates the vertex's value.
func (vc *VertexContext) SetValue(x float64) { *vc.value = x }

// Degree returns the vertex's degree in the direction.
func (vc *VertexContext) Degree(dir graph.Direction) int { return vc.g.Degree(vc.v, dir) }

// SendToNeighbors sends a message to every neighbor in the direction.
func (vc *VertexContext) SendToNeighbors(dir graph.Direction, val float64) {
	vc.ctx.SendToNeighbors(vc.v, dir, val)
}

// Send sends a message to an arbitrary vertex.
func (vc *VertexContext) Send(to graph.VID, val float64) { vc.ctx.Send(to, val) }

// VoteToHalt deactivates the vertex until a message re-activates it.
func (vc *VertexContext) VoteToHalt() { vc.halt = true }

// Program is a Pregel vertex program over float64 vertex values.
type Program interface {
	// Exchange declares how the program's messages combine and which
	// adjacency its supersteps walk (see grape.Exchange).
	Exchange() grape.Exchange
	// Init returns the initial value of a vertex.
	Init(v graph.VID, g grin.Graph) float64
	// Compute processes the vertex's messages for this superstep. Vertices
	// stay active until they VoteToHalt; halted vertices wake on messages.
	Compute(vc *VertexContext, msgs []float64)
}

// Run executes a Pregel program on a GRAPE engine built with opt, exchanging
// as the program declares, and returns the final vertex values and the
// number of supersteps.
func Run(g grin.Graph, p Program, opt grape.Options) ([]float64, int, error) {
	n := g.NumVertices()
	values := make([]float64, n)
	eng, err := grape.NewEngine(g, opt)
	if err != nil {
		return nil, 0, err
	}
	adapter := &pieAdapter{p: p, values: values, g: g,
		halted: make([]bool, n), frags: make([]fragState, eng.Fragments())}
	steps, err := eng.Run(adapter)
	if err != nil {
		return nil, 0, err
	}
	return values, steps, nil
}

// pieAdapter runs a vertex program inside the PIE protocol. Each fragment
// owns the values of its inner range; halted state is per vertex.
type pieAdapter struct {
	p      Program
	values []float64
	g      grin.Graph
	halted []bool
	frags  []fragState
}

// Exchange implements grape.Program.
func (a *pieAdapter) Exchange() grape.Exchange { return a.p.Exchange() }

// fragState is what one fragment reuses across vertices and supersteps.
type fragState struct {
	vc    VertexContext
	inbox grape.Grouper
}

// compute runs one vertex through the fragment's reused VertexContext.
func (a *pieAdapter) compute(vc *VertexContext, v graph.VID, msgs []float64) {
	vc.v, vc.value, vc.halt = v, &a.values[v], false
	a.p.Compute(vc, msgs)
	a.halted[v] = vc.halt
	if !vc.halt {
		vc.ctx.Rerun()
	}
}

// PEval implements grape.Program: superstep 0 computes every vertex with no
// messages.
func (a *pieAdapter) PEval(f *grape.Fragment, ctx *grape.Context) {
	lo, hi := f.Bounds()
	id, _ := f.Fragment()
	vc := &a.frags[id].vc
	*vc = VertexContext{ctx: ctx, g: a.g}
	for v := lo; v < hi; v++ {
		a.values[v] = a.p.Init(v, a.g)
	}
	for v := lo; v < hi; v++ {
		a.compute(vc, v, nil)
	}
}

// IncEval implements grape.Program: deliver messages to targets, wake them,
// and compute all active vertices.
func (a *pieAdapter) IncEval(f *grape.Fragment, ctx *grape.Context, msgs []grape.Message) {
	lo, hi := f.Bounds()
	id, _ := f.Fragment()
	fs := &a.frags[id]
	fs.vc.step = ctx.Superstep()
	fs.inbox.Group(lo, hi, msgs)
	for v := lo; v < hi; v++ {
		in := fs.inbox.Values(v)
		if len(in) == 0 && a.halted[v] {
			continue
		}
		a.compute(&fs.vc, v, in)
	}
}

// Inf is a convenience +infinity for distance algorithms.
var Inf = math.Inf(1)
