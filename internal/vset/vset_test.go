package vset

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"pdtl/internal/graph"
)

func TestInsertRemoveSearch(t *testing.T) {
	var list []graph.Vertex
	ref := map[graph.Vertex]bool{}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		v := graph.Vertex(rng.Intn(128))
		if rng.Intn(2) == 0 {
			list = Insert(list, v)
			ref[v] = true
		} else {
			list = Remove(list, v)
			delete(ref, v)
		}
		if !slices.IsSorted(list) {
			t.Fatalf("step %d: not sorted: %v", i, list)
		}
		if len(list) != len(ref) {
			t.Fatalf("step %d: len %d want %d", i, len(list), len(ref))
		}
	}
	for v := graph.Vertex(0); v < 128; v++ {
		if Contains(list, v) != ref[v] {
			t.Fatalf("Contains(%d) = %v want %v", v, Contains(list, v), ref[v])
		}
	}
}

func TestMergeRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		universe := 64
		ref := map[graph.Vertex]bool{}
		var base []graph.Vertex
		for v := 0; v < universe; v++ {
			if rng.Intn(2) == 0 {
				base = append(base, graph.Vertex(v))
				ref[graph.Vertex(v)] = true
			}
		}
		var ins, del []graph.Vertex
		for v := 0; v < universe; v++ {
			if ref[graph.Vertex(v)] {
				if rng.Intn(4) == 0 {
					del = append(del, graph.Vertex(v))
					ref[graph.Vertex(v)] = false
				}
			} else if rng.Intn(4) == 0 {
				ins = append(ins, graph.Vertex(v))
				ref[graph.Vertex(v)] = true
			}
		}
		var want []graph.Vertex
		for v := 0; v < universe; v++ {
			if ref[graph.Vertex(v)] {
				want = append(want, graph.Vertex(v))
			}
		}
		got := Merge(nil, base, ins, del)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: Merge(%v, %v, %v) = %v want %v", trial, base, ins, del, got, want)
		}
	}
}

func TestMergeDegradesGracefully(t *testing.T) {
	base := []graph.Vertex{2, 4, 6}
	// ins overlapping base, del not in base.
	got := Merge(nil, base, []graph.Vertex{2, 5}, []graph.Vertex{3, 6})
	want := []graph.Vertex{2, 4, 5}
	if !slices.Equal(got, want) {
		t.Fatalf("Merge = %v want %v", got, want)
	}
}

func TestInsertAtRemoveAt(t *testing.T) {
	list := []graph.Vertex{10, 20, 30}
	pos, ok := Search(list, 25)
	if ok || pos != 2 {
		t.Fatalf("Search(25) = %d,%v", pos, ok)
	}
	list = InsertAt(list, pos, 25)
	if !sort.SliceIsSorted(list, func(i, j int) bool { return list[i] < list[j] }) {
		t.Fatalf("after InsertAt: %v", list)
	}
	pos, ok = Search(list, 20)
	if !ok {
		t.Fatal("20 missing")
	}
	list = RemoveAt(list, pos)
	if slices.Contains(list, 20) {
		t.Fatalf("after RemoveAt: %v", list)
	}
}
