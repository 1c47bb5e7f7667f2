package experiment

import (
	"encoding/json"
	"fmt"
	"os"

	"geovmp/internal/atomicfile"
)

// Checkpoint is a parsed set of completed cell rows — the resume source a
// Grid preloads through Grid.Resume. Both a Set.CheckpointJSON document
// (completed cells only) and a full Set.JSON export parse as checkpoints:
// the schema is the same, so "resume from a checkpoint" and "resume from a
// finished run's output" are the same operation.
//
// Rows are keyed by (scenario, policy, seed). Policy names may repeat in a
// grid (ablation grids construct the same controller under one name with
// different knobs), so each key holds its rows in document order and take
// consumes them FIFO — matching NewSet's grid-index-order preload, which is
// the order the writer emitted them in.
type Checkpoint struct {
	rows map[ckKey][]*CellData
	// Loaded counts the usable rows parsed (rows carrying an error are
	// dropped — a failed cell must be recomputed, not resumed).
	Loaded int
	// Skipped counts rows dropped because they recorded an error.
	Skipped int
}

type ckKey struct {
	scenario string
	policy   string
	seed     uint64
}

// ParseCheckpoint parses a checkpoint or ResultSet JSON document.
func ParseCheckpoint(data []byte) (*Checkpoint, error) {
	var doc struct {
		Cells []CellData `json:"cells"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("experiment: parse checkpoint: %w", err)
	}
	ck := &Checkpoint{rows: make(map[ckKey][]*CellData, len(doc.Cells))}
	for i := range doc.Cells {
		row := &doc.Cells[i]
		if row.Error != "" {
			ck.Skipped++
			continue
		}
		k := ckKey{row.Scenario, row.Policy, row.Seed}
		ck.rows[k] = append(ck.rows[k], row)
		ck.Loaded++
	}
	return ck, nil
}

// LoadCheckpoint reads and parses a checkpoint file.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("experiment: load checkpoint: %w", err)
	}
	return ParseCheckpoint(data)
}

// WriteCheckpoint stores the set's CheckpointJSON and a trailing newline at
// path through atomicfile.Write, so a reader sees the previous checkpoint
// or the new one, never a partial write.
func (s *Set) WriteCheckpoint(path string) error {
	b, err := s.CheckpointJSON()
	if err != nil {
		return err
	}
	return atomicfile.Write(path, append(b, '\n'))
}

// take pops the next unclaimed row for the given cell identity, or nil when
// the checkpoint has none (left). Rows are consumed: a checkpoint with one
// row for an identity resumes exactly one cell of that identity.
func (ck *Checkpoint) take(scenario, policy string, seed uint64) *CellData {
	k := ckKey{scenario, policy, seed}
	rows := ck.rows[k]
	if len(rows) == 0 {
		return nil
	}
	row := rows[0]
	ck.rows[k] = rows[1:]
	return row
}
