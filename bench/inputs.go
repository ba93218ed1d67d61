package main

import (
	"bufio"
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"pdtl/internal/baseline"
	"pdtl/internal/gen"
	"pdtl/internal/graph"
)

// inputGraph describes one generated input and what a correct run over it
// must produce.
type inputGraph struct {
	Spec string `json:"spec"`
	// Path is the unoriented store's base path, or the edge file.
	Path      string `json:"path,omitempty"`
	Vertices  int    `json:"vertices"`
	Edges     uint64 `json:"edges"`
	Triangles uint64 `json:"triangles"`
	// ListSum is the order-independent checksum of the triangle listing
	// (see triangleSum), from baseline.ForwardList.
	ListSum uint64 `json:"list_sum"`
	// SHA256 covers the bytes the program is given: the store's degree and
	// adjacency files, or the edge file.
	SHA256 string `json:"sha256"`
}

// manifest is what the inputs phase hands to the measure phase.
type manifest struct {
	Workload   string       `json:"workload"`
	Seed       int64        `json:"seed"`
	Graphs     []inputGraph `json:"graphs"`
	GenSeconds float64      `json:"gen_seconds"`
}

// pinFile records, for the pinned seed at full scale, what the generators
// and the store encoding must produce: a parent-vs-change comparison is only
// meaningful when both sides saw identical inputs.
type pinFile struct {
	Seed      int64                   `json:"seed"`
	Workloads map[string][]inputGraph `json:"workloads"`
}

//go:embed pins.json
var pinsJSON []byte

// triangleMix hashes one triangle independently of the order its corners
// are reported in; triangleSum of a listing is the wrapping sum of these,
// so it is independent of the listing's order too.
func triangleMix(u, v, w uint32) uint64 {
	if u > v {
		u, v = v, u
	}
	if v > w {
		v, w = w, v
	}
	if u > v {
		u, v = v, u
	}
	// splitmix64 finalizer over the packed triple and its widest corner.
	x := uint64(u) | uint64(v)<<21 | uint64(w)<<42
	x ^= uint64(w) * 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// buildInputs generates the workload's inputs into dir, computes the
// expected results with internal/baseline, and returns the manifest.
func buildInputs(w workloadSpec, seed int64, dir string) (*manifest, error) {
	m := &manifest{Workload: w.Name, Seed: seed}
	for k, gs := range w.Graphs {
		start := time.Now()
		var csr *graph.CSR
		var err error
		switch gs.Kind {
		case "rmat":
			csr, err = gen.RMAT(gs.Scale, gs.EdgeFactor, seed+int64(k))
		case "powerlaw":
			csr, err = gen.PowerLaw(gs.N, gs.M, gs.Exponent, seed+int64(k))
		default:
			err = fmt.Errorf("unknown generator %q", gs.Kind)
		}
		if err != nil {
			return nil, fmt.Errorf("generate %s: %w", gs, err)
		}
		in := inputGraph{Spec: gs.String(), Vertices: csr.NumVertices(), Edges: csr.NumEdges()}
		var hashed []string
		if gs.EdgeFile {
			in.Path = filepath.Join(dir, fmt.Sprintf("g%d.edges", k))
			if err := writeEdgeFile(in.Path, csr.Edges(), seed+int64(k)+1); err != nil {
				return nil, err
			}
			hashed = []string{in.Path}
		} else {
			in.Path = filepath.Join(dir, fmt.Sprintf("g%d", k))
			if err := graph.WriteCSR(in.Path, gs.Kind, csr); err != nil {
				return nil, fmt.Errorf("write store: %w", err)
			}
			hashed = []string{graph.DegPath(in.Path), graph.AdjPath(in.Path)}
		}
		m.GenSeconds += time.Since(start).Seconds()

		baseline.ForwardList(csr, func(u, v, w graph.Vertex) {
			in.Triangles++
			in.ListSum += triangleMix(u, v, w)
		})
		if in.SHA256, err = hashFiles(hashed...); err != nil {
			return nil, err
		}
		m.Graphs = append(m.Graphs, in)
	}
	return m, nil
}

// checkPins fails with "inputs drifted" when the pinned seed no longer
// produces the pinned inputs. Other seeds are verified against
// internal/baseline only.
func checkPins(m *manifest) error {
	var pins pinFile
	if err := json.Unmarshal(pinsJSON, &pins); err != nil {
		return fmt.Errorf("pins.json: %w", err)
	}
	if m.Seed != pins.Seed {
		return nil
	}
	want, ok := pins.Workloads[m.Workload]
	if !ok || len(want) != len(m.Graphs) {
		return fmt.Errorf("inputs drifted: %s has no matching pin (rerun with -update-pins if intended)", m.Workload)
	}
	for i, got := range m.Graphs {
		got.Path = ""
		if got != want[i] {
			return fmt.Errorf("inputs drifted: %s input %d is %+v, pinned %+v", m.Workload, i, got, want[i])
		}
	}
	return nil
}

// writeEdgeFile writes edges as little-endian uint32 pairs in a seeded
// random order with random endpoint order — what a first-time user's raw
// edge dump looks like to the ingest pipeline.
func writeEdgeFile(path string, edges []graph.Edge, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	var rec [8]byte
	for _, e := range edges {
		u, v := e.U, e.V
		if rng.Intn(2) == 0 {
			u, v = v, u
		}
		binary.LittleEndian.PutUint32(rec[0:], u)
		binary.LittleEndian.PutUint32(rec[4:], v)
		bw.Write(rec[:]) // error surfaces at Flush
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func hashFiles(paths ...string) (string, error) {
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return "", err
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSONFile(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}
