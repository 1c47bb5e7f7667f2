package correlation

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"geovmp/internal/units"
)

// fullWalk is Mean and Each as a walk over every row slot up to the
// largest sender, empty ones included: the order and sum the live-row walk
// must reproduce bit for bit.
func fullWalk(m *DataMatrix) (mean uint64, cells []bitCell) {
	var sum units.DataSize
	for from, row := range m.rows {
		for _, c := range row {
			sum += c.vol
			cells = append(cells, bitCell{from, c.to, math.Float64bits(float64(c.vol))})
		}
	}
	if m.pairs > 0 {
		mean = math.Float64bits(float64(units.DataSize(float64(sum) / float64(m.pairs))))
	}
	return mean, cells
}

// runLiveRows applies one op per four bytes — Add, a two-way Add, RemoveVM,
// Refill, Reset or Clone, over ids spanning several bitset words — and
// after each holds Mean and Each to the full walk.
func runLiveRows(t *testing.T, data []byte) {
	const nIDs = 200
	m := NewDataMatrix()
	var d RowDiff
	var all []int // every id an op names, RemoveVM's partners
	for id := 0; id < 2*nIDs; id++ {
		all = append(all, id)
	}
	for k, ops := 0, data; len(ops) >= 4; k, ops = k+1, ops[4:] {
		a, b := int(ops[1])%nIDs, int(ops[2])%nIDs
		v := units.DataSize(ops[3]%8) + 0.1
		switch ops[0] % 6 {
		case 0:
			m.Add(a, b, v)
		case 1:
			m.Add(a, b, v)
			m.Add(b, a, v+1)
		case 2:
			m.RemoveVM(a, all)
		case 3:
			// Keep the pairs whose sender's low bits pass the op's mask,
			// and add one sender beyond the ids the other ops use.
			var keep []bitCell
			m.Each(func(from, to int, vol units.DataSize) {
				if from&int(ops[1]&7) == 0 {
					keep = append(keep, bitCell{from, to, math.Float64bits(float64(vol))})
				}
			})
			keep = append(keep, bitCell{nIDs + b, a, math.Float64bits(float64(v))})
			m.Refill(len(keep), func(i int) (int, int, units.DataSize) {
				return keep[i].from, keep[i].to, units.DataSize(math.Float64frombits(keep[i].bits))
			}, &d)
		case 4:
			if ops[1]%4 == 0 {
				m.Reset()
			}
		case 5:
			m = m.Clone()
		}
		mean, cells := fullWalk(m)
		if got := walk(m); !slices.Equal(got, cells) {
			t.Fatalf("op %d: Each %v, full walk %v", k, got, cells)
		}
		if got := math.Float64bits(float64(m.Mean())); got != mean {
			t.Fatalf("op %d: Mean bits %x, full walk %x", k, got, mean)
		}
	}
}

// FuzzLiveRows holds the live-row walks of Mean and Each to the full walk
// over Add/RemoveVM/Refill/Reset/Clone sequences.
func FuzzLiveRows(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 70, 2, 5, 1, 130, 64, 1, 2, 70, 0, 0, 3, 0, 9, 2})
	f.Add([]byte{1, 63, 64, 7, 1, 127, 128, 3, 3, 1, 5, 4, 2, 64, 0, 0, 5, 0, 0, 0, 0, 199, 0, 6})
	f.Add([]byte{0, 5, 6, 1, 4, 0, 0, 0, 0, 7, 8, 2, 3, 2, 1, 1, 2, 7, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) { runLiveRows(t, data) })
}

// TestLiveRowsRandom runs the fuzz target's check over long random op
// sequences.
func TestLiveRowsRandom(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		data := make([]byte, 4*400)
		rnd.Read(data)
		runLiveRows(t, data)
	}
}
