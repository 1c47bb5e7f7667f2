package embed

import "geovmp/internal/par"

// OracleAttraction is the sampled mode's attraction-pair construction as
// it was before runs were index-addressed, kept as the test oracle:
// partners come from the id-addressed peers through an id -> index map, a
// pair set drops repeats, and each pair's directed forces are two Force
// calls.
// It returns the pairs and attracted[i], the partners of point i.
func OracleAttraction(ids []int, field Field, peers func(id int) []int) ([]apair, [][]int32) {
	n := len(ids)
	idx := make(map[int]int, n)
	for k, id := range ids {
		idx[id] = k
	}
	var apairs []apair
	attracted := make([][]int32, n)
	seen := make(map[[2]int]bool)
	for i, id := range ids {
		for _, peer := range peers(id) {
			j, ok := idx[peer]
			if !ok || i == j {
				continue
			}
			key := [2]int{min(i, j), max(i, j)}
			if seen[key] {
				continue
			}
			seen[key] = true
			attracted[key[0]] = append(attracted[key[0]], int32(key[1]))
			attracted[key[1]] = append(attracted[key[1]], int32(key[0]))
			apairs = append(apairs, apair{
				i: key[0], j: key[1],
				fij: field.Force(ids[key[0]], ids[key[1]]),
				fji: field.Force(ids[key[1]], ids[key[0]]),
			})
		}
	}
	return apairs, attracted
}

// BuildAttraction exposes the index-addressed construction to the external
// property test.
func BuildAttraction(n int, sf SplitField, workers *par.Budget) []apair {
	return buildAttraction(n, sf, workers)
}
