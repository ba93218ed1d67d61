// Package hot has a hot path whose callee, a package away, allocates.
package hot

import "lintmod/dep"

// Sum adds up n entries.
//
//pdtl:hotpath
func Sum(n int) int {
	s := 0
	for _, v := range dep.Fill(n) {
		s += v
	}
	return s
}
