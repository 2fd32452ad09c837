package graph

import "fmt"

// VertexRecord is one vertex in a load batch, identified by the external
// (application) ID that edges reference. Internal IDs are assigned by stores.
type VertexRecord struct {
	Label LabelID
	ExtID int64
	Props []Value // positional, following the schema's PropDef order
}

// EdgeRecord is one edge in a load batch. Src/Dst are external IDs scoped by
// the edge label's endpoint vertex labels.
type EdgeRecord struct {
	Label LabelID
	Src   int64
	Dst   int64
	Props []Value
}

// Batch is the interchange unit between dataset generators, archive formats
// and storage backends: a schema plus flat vertex/edge record slices.
type Batch struct {
	Schema   *Schema
	Vertices []VertexRecord
	Edges    []EdgeRecord
}

// NewBatch returns an empty batch over a schema.
func NewBatch(s *Schema) *Batch { return &Batch{Schema: s} }

// AddVertex appends a vertex record.
func (b *Batch) AddVertex(label LabelID, extID int64, props ...Value) {
	b.Vertices = append(b.Vertices, VertexRecord{Label: label, ExtID: extID, Props: props})
}

// AddEdge appends an edge record.
func (b *Batch) AddEdge(label LabelID, src, dst int64, props ...Value) {
	b.Edges = append(b.Edges, EdgeRecord{Label: label, Src: src, Dst: dst, Props: props})
}

// Validate checks batch integrity: labels are in range, property arity and
// kinds match the schema, and every edge endpoint resolves to a loaded vertex.
// It is used by tests and by the archive reader to reject corrupt input.
func (b *Batch) Validate() error {
	s := b.Schema
	if s == nil {
		return fmt.Errorf("graph: batch has no schema")
	}
	seen := make(map[labeledExt]bool, len(b.Vertices))
	for i, v := range b.Vertices {
		if int(v.Label) < 0 || int(v.Label) >= len(s.Vertices) {
			return fmt.Errorf("graph: vertex %d: label %d out of range", i, v.Label)
		}
		defs := s.Vertices[v.Label].Props
		if len(v.Props) != len(defs) {
			return fmt.Errorf("graph: vertex %d (%s): %d props, schema wants %d",
				i, s.VertexLabelName(v.Label), len(v.Props), len(defs))
		}
		for j, p := range v.Props {
			if !p.IsNull() && p.K != defs[j].Kind {
				return fmt.Errorf("graph: vertex %d prop %q: kind %v, schema wants %v",
					i, defs[j].Name, p.K, defs[j].Kind)
			}
		}
		key := labeledExt{v.Label, v.ExtID}
		if seen[key] {
			return fmt.Errorf("graph: duplicate vertex %s/%d", s.VertexLabelName(v.Label), v.ExtID)
		}
		seen[key] = true
	}
	for i, e := range b.Edges {
		if int(e.Label) < 0 || int(e.Label) >= len(s.Edges) {
			return fmt.Errorf("graph: edge %d: label %d out of range", i, e.Label)
		}
		el := s.Edges[e.Label]
		if len(e.Props) != len(el.Props) {
			return fmt.Errorf("graph: edge %d (%s): %d props, schema wants %d",
				i, el.Name, len(e.Props), len(el.Props))
		}
		for j, p := range e.Props {
			if !p.IsNull() && p.K != el.Props[j].Kind {
				return fmt.Errorf("graph: edge %d prop %q: kind %v, schema wants %v",
					i, el.Props[j].Name, p.K, el.Props[j].Kind)
			}
		}
		if el.Src != AnyLabel && !seen[labeledExt{el.Src, e.Src}] {
			return fmt.Errorf("graph: edge %d (%s): unknown source vertex %d", i, el.Name, e.Src)
		}
		if el.Dst != AnyLabel && !seen[labeledExt{el.Dst, e.Dst}] {
			return fmt.Errorf("graph: edge %d (%s): unknown destination vertex %d", i, el.Name, e.Dst)
		}
	}
	return nil
}

type labeledExt struct {
	label LabelID
	ext   int64
}

// Stats summarizes a batch for logging and experiment tables.
func (b *Batch) Stats() string {
	return fmt.Sprintf("|V|=%d |E|=%d labels=%d/%d",
		len(b.Vertices), len(b.Edges), len(b.Schema.Vertices), len(b.Schema.Edges))
}
