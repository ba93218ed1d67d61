// Package clean breaks no rule.
package clean

// Twice doubles x.
func Twice(x int) int { return 2 * x }
