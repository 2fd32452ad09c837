package graphar

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/graph"
	"repro/internal/parallel"
)

// LoadBatch reads a whole archive into a Batch, decoding column files in
// parallel on GOMAXPROCS workers. When several files fail, the error is the
// one of the first in task order (vertex labels, then edge labels; the
// structural columns of a label before its properties), whatever the
// schedule. This is the bulk-load path measured in Exp-1d (Fig 7d) against
// the CSV baseline.
func LoadBatch(dir string) (*graph.Batch, error) {
	m, err := ReadMeta(dir)
	if err != nil {
		return nil, err
	}
	schema, err := m.SchemaOf()
	if err != nil {
		return nil, err
	}
	// Plan one decode task per column file; each writes only its own slot.
	var tasks []func() error

	vertexExt := make([][]int64, len(m.VertexLabels))
	vertexProps := make([][][]graph.Value, len(m.VertexLabels))
	for l := range m.VertexLabels {
		vertexProps[l] = make([][]graph.Value, len(m.VertexLabels[l].Props))
		tasks = append(tasks, func() (err error) {
			vertexExt[l], err = readIntFile(filepath.Join(dir, vertexExtFile(l)), m.VertexLabels[l].Count)
			return err
		})
		for pi := range m.VertexLabels[l].Props {
			kind, err := kindFromName(m.VertexLabels[l].Props[pi].Kind)
			if err != nil {
				return nil, err
			}
			tasks = append(tasks, func() (err error) {
				vertexProps[l][pi], err = readValueFile(filepath.Join(dir, vertexPropFile(l, pi)), kind, m.VertexLabels[l].Count)
				return err
			})
		}
	}

	edgeSrc := make([][]int64, len(m.EdgeLabels))
	edgeDst := make([][]int64, len(m.EdgeLabels))
	edgeProps := make([][][]graph.Value, len(m.EdgeLabels))
	for l := range m.EdgeLabels {
		edgeProps[l] = make([][]graph.Value, len(m.EdgeLabels[l].Props))
		tasks = append(tasks, func() (err error) {
			edgeSrc[l], err = readIntFile(filepath.Join(dir, edgeSrcFile(l)), m.EdgeLabels[l].Count)
			return err
		})
		tasks = append(tasks, func() (err error) {
			edgeDst[l], err = readIntFile(filepath.Join(dir, edgeDstFile(l)), m.EdgeLabels[l].Count)
			return err
		})
		for pi := range m.EdgeLabels[l].Props {
			kind, err := kindFromName(m.EdgeLabels[l].Props[pi].Kind)
			if err != nil {
				return nil, err
			}
			tasks = append(tasks, func() (err error) {
				edgeProps[l][pi], err = readValueFile(filepath.Join(dir, edgePropFile(l, pi)), kind, m.EdgeLabels[l].Count)
				return err
			})
		}
	}

	errs := make([]error, len(tasks))
	parallel.ForDynamic(len(tasks), 0, 1, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			errs[i] = tasks[i]()
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Assemble the batch.
	b := graph.NewBatch(schema)
	for l := range m.VertexLabels {
		for i, ext := range vertexExt[l] {
			var props []graph.Value
			if np := len(vertexProps[l]); np > 0 {
				props = make([]graph.Value, np)
				for pi := range props {
					props[pi] = vertexProps[l][pi][i]
				}
			}
			b.Vertices = append(b.Vertices, graph.VertexRecord{
				Label: graph.LabelID(l), ExtID: ext, Props: props,
			})
		}
	}
	for l := range m.EdgeLabels {
		for i := range edgeSrc[l] {
			var props []graph.Value
			if np := len(edgeProps[l]); np > 0 {
				props = make([]graph.Value, np)
				for pi := range props {
					props[pi] = edgeProps[l][pi][i]
				}
			}
			b.Edges = append(b.Edges, graph.EdgeRecord{
				Label: graph.LabelID(l), Src: edgeSrc[l][i], Dst: edgeDst[l][i], Props: props,
			})
		}
	}
	return b, nil
}

// readIntFile decodes a whole structural int column and checks row count.
func readIntFile(path string, wantRows int) ([]int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("graphar: %w", err)
	}
	cf, err := parseColFile(data, path)
	if err != nil {
		return nil, err
	}
	if cf.totalRows != wantRows {
		return nil, fmt.Errorf("graphar: %s: %d rows, manifest says %d", path, cf.totalRows, wantRows)
	}
	out := make([]int64, 0, cf.totalRows)
	for c := 0; c < cf.numChunks(); c++ {
		vals, err := decodeInts(cf.chunkPayload(c), cf.chunkRows(c))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, vals...)
	}
	return out, nil
}

// readValueFile decodes a whole property column.
func readValueFile(path string, kind graph.Kind, wantRows int) ([]graph.Value, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("graphar: %w", err)
	}
	cf, err := parseColFile(data, path)
	if err != nil {
		return nil, err
	}
	if cf.totalRows != wantRows {
		return nil, fmt.Errorf("graphar: %s: %d rows, manifest says %d", path, cf.totalRows, wantRows)
	}
	out := make([]graph.Value, 0, cf.totalRows)
	for c := 0; c < cf.numChunks(); c++ {
		vals, err := decodeValueChunk(kind, cf.chunkPayload(c), cf.chunkRows(c))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, vals...)
	}
	return out, nil
}
