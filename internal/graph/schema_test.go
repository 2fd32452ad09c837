package graph

import "testing"

// testSchema builds a small e-commerce-like LPG schema mirroring Fig 2(e).
func testSchema() *Schema {
	return NewSchema(
		[]VertexLabel{
			{Name: "Buyer", Props: []PropDef{{Name: "username", Kind: KindString}, {Name: "credits", Kind: KindInt}}},
			{Name: "Item", Props: []PropDef{{Name: "price", Kind: KindFloat}}},
			{Name: "Seller", Props: []PropDef{{Name: "rating", Kind: KindFloat}}},
		},
		[]EdgeLabel{
			{Name: "Knows", Src: 0, Dst: 0},
			{Name: "Buy", Src: 0, Dst: 1, Props: []PropDef{{Name: "date", Kind: KindInt}}},
			{Name: "Sell", Src: 2, Dst: 1},
		},
	)
}

func TestSchemaLookups(t *testing.T) {
	s := testSchema()
	if s.NumVertexLabels() != 3 || s.NumEdgeLabels() != 3 {
		t.Fatalf("label counts wrong: %d %d", s.NumVertexLabels(), s.NumEdgeLabels())
	}
	if id, ok := s.VertexLabelID("Item"); !ok || id != 1 {
		t.Fatalf("VertexLabelID(Item)=%d,%v", id, ok)
	}
	if _, ok := s.VertexLabelID("Nope"); ok {
		t.Fatal("unknown vertex label resolved")
	}
	if id, ok := s.EdgeLabelID("Buy"); !ok || id != 1 {
		t.Fatalf("EdgeLabelID(Buy)=%d,%v", id, ok)
	}
	if s.VertexLabelName(0) != "Buyer" || s.VertexLabelName(AnyLabel) != "*" {
		t.Fatal("VertexLabelName wrong")
	}
	if s.EdgeLabelName(2) != "Sell" || s.EdgeLabelName(AnyLabel) != "*" {
		t.Fatal("EdgeLabelName wrong")
	}
	if s.VertexPropID(0, "credits") != 1 {
		t.Fatal("VertexPropID(credits) wrong")
	}
	if s.VertexPropID(0, "missing") != NoProp || s.VertexPropID(AnyLabel, "username") != NoProp {
		t.Fatal("missing vertex prop should be NoProp")
	}
	if s.EdgePropID(1, "date") != 0 || s.EdgePropID(0, "date") != NoProp {
		t.Fatal("EdgePropID wrong")
	}
}

func TestSimpleSchema(t *testing.T) {
	s := SimpleSchema(false)
	if s.NumVertexLabels() != 1 || s.NumEdgeLabels() != 1 {
		t.Fatal("simple schema should have one label each")
	}
	if len(s.Edges[0].Props) != 0 {
		t.Fatal("unweighted simple schema should have no edge props")
	}
	w := SimpleSchema(true)
	if w.EdgePropID(0, "weight") != 0 {
		t.Fatal("weighted simple schema missing weight prop")
	}
}

func TestBatchValidate(t *testing.T) {
	s := testSchema()
	b := NewBatch(s)
	b.AddVertex(0, 1, StringValue("A1"), IntValue(8))
	b.AddVertex(0, 2, StringValue("B2"), IntValue(3))
	b.AddVertex(1, 10, FloatValue(29.9))
	b.AddEdge(0, 1, 2)
	b.AddEdge(1, 1, 10, IntValue(20231021))
	if err := b.Validate(); err != nil {
		t.Fatalf("valid batch rejected: %v", err)
	}

	bad := NewBatch(s)
	bad.AddVertex(0, 1, StringValue("A1")) // wrong arity
	if err := bad.Validate(); err == nil {
		t.Fatal("arity mismatch accepted")
	}

	bad2 := NewBatch(s)
	bad2.AddVertex(0, 1, IntValue(5), IntValue(8)) // wrong kind for username
	if err := bad2.Validate(); err == nil {
		t.Fatal("kind mismatch accepted")
	}

	bad3 := NewBatch(s)
	bad3.AddVertex(0, 1, StringValue("A1"), IntValue(8))
	bad3.AddEdge(0, 1, 99) // dangling destination
	if err := bad3.Validate(); err == nil {
		t.Fatal("dangling edge accepted")
	}

	bad4 := NewBatch(s)
	bad4.AddVertex(0, 1, StringValue("A1"), IntValue(8))
	bad4.AddVertex(0, 1, StringValue("A1"), IntValue(8)) // duplicate
	if err := bad4.Validate(); err == nil {
		t.Fatal("duplicate vertex accepted")
	}

	bad5 := &Batch{}
	if err := bad5.Validate(); err == nil {
		t.Fatal("schemaless batch accepted")
	}
}

func TestBatchNullPropsAllowed(t *testing.T) {
	s := testSchema()
	b := NewBatch(s)
	b.AddVertex(0, 1, NullValue, NullValue) // nulls pass kind check
	if err := b.Validate(); err != nil {
		t.Fatalf("null props rejected: %v", err)
	}
}

func TestBatchStats(t *testing.T) {
	s := testSchema()
	b := NewBatch(s)
	b.AddVertex(1, 5, FloatValue(1))
	b.AddVertex(0, 9, StringValue("z"), IntValue(0))
	b.AddVertex(0, 2, StringValue("a"), IntValue(0))
	b.AddEdge(1, 9, 5, IntValue(1))
	b.AddEdge(0, 9, 2)
	b.AddEdge(0, 2, 9)
	if got, want := b.Stats(), "|V|=3 |E|=3 labels=3/3"; got != want {
		t.Fatalf("Stats = %q, want %q", got, want)
	}
}
