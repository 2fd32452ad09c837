package column

import (
	"testing"

	"repro/internal/graph"
)

func TestAppendGetAllKinds(t *testing.T) {
	cases := []struct {
		kind graph.Kind
		val  graph.Value
	}{
		{graph.KindInt, graph.IntValue(42)},
		{graph.KindFloat, graph.FloatValue(2.5)},
		{graph.KindString, graph.StringValue("hi")},
		{graph.KindBool, graph.BoolValue(true)},
	}
	for _, c := range cases {
		col := New(c.kind)
		if col.Kind() != c.kind {
			t.Fatal("kind")
		}
		if err := col.Append(c.val); err != nil {
			t.Fatal(err)
		}
		got, ok := col.Get(0)
		if !ok || !got.Equal(c.val) {
			t.Fatalf("%v: got %v ok=%v", c.kind, got, ok)
		}
		if col.Len() != 1 {
			t.Fatal("len")
		}
	}
}

func TestNullsAndKindMismatch(t *testing.T) {
	col := New(graph.KindInt)
	_ = col.Append(graph.IntValue(1))
	_ = col.Append(graph.NullValue)
	_ = col.Append(graph.IntValue(3))
	if _, ok := col.Get(1); ok {
		t.Fatal("null row resolved")
	}
	if v, ok := col.Get(0); !ok || v.Int() != 1 {
		t.Fatal("pre-null row corrupted")
	}
	if v, ok := col.Get(2); !ok || v.Int() != 3 {
		t.Fatal("post-null row corrupted")
	}
	if err := col.Append(graph.StringValue("x")); err == nil {
		t.Fatal("kind mismatch accepted")
	}
	if _, ok := col.Get(99); ok {
		t.Fatal("out of range resolved")
	}
	if _, ok := col.Get(-1); ok {
		t.Fatal("negative row resolved")
	}
}

func TestSet(t *testing.T) {
	col := New(graph.KindString)
	_ = col.Append(graph.StringValue("a"))
	if err := col.Set(0, graph.StringValue("b")); err != nil {
		t.Fatal(err)
	}
	if v, _ := col.Get(0); v.Str() != "b" {
		t.Fatal("set lost")
	}
	if err := col.Set(0, graph.NullValue); err != nil {
		t.Fatal(err)
	}
	if _, ok := col.Get(0); ok {
		t.Fatal("set-null ignored")
	}
	// Un-null by setting a value again.
	if err := col.Set(0, graph.StringValue("c")); err != nil {
		t.Fatal(err)
	}
	if v, ok := col.Get(0); !ok || v.Str() != "c" {
		t.Fatal("un-null failed")
	}
	if err := col.Set(5, graph.StringValue("x")); err == nil {
		t.Fatal("out-of-range set accepted")
	}
	if err := col.Set(0, graph.IntValue(1)); err == nil {
		t.Fatal("kind mismatch set accepted")
	}
}

func TestRawAccessors(t *testing.T) {
	fc := New(graph.KindFloat)
	_ = fc.Append(graph.FloatValue(1.5))
	if fs := fc.Floats(); len(fs) != 1 || fs[0] != 1.5 {
		t.Fatal("Floats")
	}
	if fc.Ints() != nil || fc.Strings() != nil {
		t.Fatal("wrong-kind raw access should be nil")
	}
	ic := New(graph.KindInt)
	_ = ic.Append(graph.IntValue(7))
	if is := ic.Ints(); len(is) != 1 || is[0] != 7 {
		t.Fatal("Ints")
	}
	sc := New(graph.KindString)
	_ = sc.Append(graph.StringValue("z"))
	if ss := sc.Strings(); len(ss) != 1 || ss[0] != "z" {
		t.Fatal("Strings")
	}
}

func TestSetAndAppendRow(t *testing.T) {
	defs := []graph.PropDef{
		{Name: "a", Kind: graph.KindInt},
		{Name: "b", Kind: graph.KindString},
	}
	cols := Set(defs)
	if len(cols) != 2 {
		t.Fatal("Set size")
	}
	if err := AppendRow(cols, []graph.Value{graph.IntValue(1), graph.StringValue("x")}); err != nil {
		t.Fatal(err)
	}
	// Short rows pad with nulls.
	if err := AppendRow(cols, []graph.Value{graph.IntValue(2)}); err != nil {
		t.Fatal(err)
	}
	if _, ok := cols[1].Get(1); ok {
		t.Fatal("padded row should be null")
	}
	if err := AppendRow(cols, []graph.Value{graph.StringValue("bad")}); err == nil {
		t.Fatal("kind mismatch row accepted")
	}
}

// TestLazyNullBitmapPromotion: the null bitmap must not exist until the first
// NULL lands, and must backfill the dense prefix exactly when it does.
func TestLazyNullBitmapPromotion(t *testing.T) {
	col := New(graph.KindInt)
	for i := 0; i < 5; i++ {
		col.AppendInt(int64(i))
	}
	if col.HasNulls() || col.Nulls() != nil {
		t.Fatal("bitmap materialized before any NULL")
	}
	col.AppendNull()
	if !col.HasNulls() {
		t.Fatal("bitmap missing after NULL")
	}
	if got := len(col.Nulls()); got != 6 {
		t.Fatalf("bitmap length %d, want 6 (dense prefix backfilled)", got)
	}
	for i := 0; i < 5; i++ {
		if col.NullAt(i) {
			t.Fatalf("backfilled row %d marked NULL", i)
		}
	}
	if !col.NullAt(5) {
		t.Fatal("NULL row not marked")
	}
	// Appends after promotion may leave the bitmap short — the lazy suffix is
	// implicitly non-null.
	col.AppendInt(99)
	if col.NullAt(6) {
		t.Fatal("lazy suffix row reported NULL")
	}
	if v, ok := col.Get(6); !ok || v.Int() != 99 {
		t.Fatalf("row after promotion: %v ok=%v", v, ok)
	}
}

// TestZeroLengthGathers: empty gathers over empty and non-empty columns must
// be no-ops on every path.
func TestZeroLengthGathers(t *testing.T) {
	col := New(graph.KindString)
	col.Gather(nil, nil)
	col.Gather([]int{}, []graph.Value{})
	dst := New(graph.KindString)
	if err := dst.AppendRows(col, nil); err != nil {
		t.Fatal(err)
	}
	if err := dst.AppendAll(col); err != nil {
		t.Fatal(err)
	}
	if dst.Len() != 0 {
		t.Fatalf("zero-length appends grew the column to %d", dst.Len())
	}
	_ = col.Append(graph.StringValue("x"))
	if err := dst.AppendRows(col, []int32{}); err != nil {
		t.Fatal(err)
	}
	if dst.Len() != 0 {
		t.Fatal("empty selection append copied rows")
	}
}

// TestSelectionGatherOverNulls: gathering through a selection vector must
// carry NULLs row-accurately, including rows beyond a short lazy bitmap.
func TestSelectionGatherOverNulls(t *testing.T) {
	col := New(graph.KindInt)
	_ = col.Append(graph.IntValue(10))
	col.AppendNull()
	_ = col.Append(graph.IntValue(30))
	col.AppendInt(40) // lazy suffix: bitmap stays at 2 entries

	sel := []int32{3, 1, 0}
	out := make([]graph.Value, len(sel))
	col.Gather([]int{3, 1, 0}, out)
	if out[0].Int() != 40 || !out[1].IsNull() || out[2].Int() != 10 {
		t.Fatalf("Gather over nulls: %v", out)
	}

	dst := New(graph.KindInt)
	if err := dst.AppendRows(col, sel); err != nil {
		t.Fatal(err)
	}
	if dst.Len() != 3 {
		t.Fatalf("AppendRows len %d", dst.Len())
	}
	if v, ok := dst.Get(0); !ok || v.Int() != 40 {
		t.Fatalf("gathered row 0: %v ok=%v", v, ok)
	}
	if !dst.NullAt(1) {
		t.Fatal("gathered NULL lost")
	}
	if v, ok := dst.Get(2); !ok || v.Int() != 10 {
		t.Fatalf("gathered row 2: %v ok=%v", v, ok)
	}
}

// TestBulkAppendKindMismatch: the bulk append paths must reject cross-kind
// sources instead of silently reinterpreting payloads.
func TestBulkAppendKindMismatch(t *testing.T) {
	ints := New(graph.KindInt)
	_ = ints.Append(graph.IntValue(1))
	strs := New(graph.KindString)
	if err := strs.AppendAll(ints); err == nil {
		t.Fatal("AppendAll kind mismatch accepted")
	}
	if err := strs.AppendRows(ints, []int32{0}); err == nil {
		t.Fatal("AppendRows kind mismatch accepted")
	}
	if strs.Len() != 0 {
		t.Fatal("failed append mutated the column")
	}
}
