// Package wire declares a gob wire struct, as the cluster's wire.go does.
package wire

// Args is a wire struct: its literals must be keyed.
type Args struct {
	Name  string
	Count int
}

// Keyed is a keyed literal, which passes.
var Keyed = Args{Name: "a", Count: 1}
