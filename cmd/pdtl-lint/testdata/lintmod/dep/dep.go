// Package dep allocates, which is no finding of its own: none of its
// functions is a hot path.
package dep

// Fill returns n entries.
func Fill(n int) []int { return grow(n) }

func grow(n int) []int { return make([]int, n) }
