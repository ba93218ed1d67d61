package service

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"pdtl"
)

// BenchmarkStreamTriangles times GET /triangles end to end on an RMAT-12
// store: the engine, the iterator, the NDJSON encoding and HTTP, with the
// body read and discarded.
func BenchmarkStreamTriangles(b *testing.B) {
	base := filepath.Join(b.TempDir(), "rmat")
	if _, err := pdtl.GenerateRMAT(base, 12, 16, 5); err != nil {
		b.Fatal(err)
	}
	svc := New(Config{})
	defer svc.Shutdown(context.Background())
	if err := svc.RegisterGraph("g", base); err != nil {
		b.Fatal(err)
	}
	e, err := svc.Registry().Get("g")
	if err != nil {
		b.Fatal(err)
	}
	// Orient the store and learn its count, outside the timed loop.
	res, err := e.Graph().Count(context.Background(), pdtl.Options{Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(svc)
	defer ts.Close()
	url := ts.URL + "/v1/graphs/g/triangles?workers=2"
	b.ResetTimer()
	for range b.N {
		resp, err := ts.Client().Get(url)
		if err != nil {
			b.Fatal(err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			b.Fatalf("stream: status %d, %v", resp.StatusCode, err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(uint64(b.N)*res.Triangles), "ns/triangle")
}
