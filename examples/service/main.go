// Service quickstart: start the triangle query service in-process, register
// a graph over the HTTP API, count it twice (the second reply is a cache
// hit — no engine run, no I/O), stream the first triangles as NDJSON, and
// shut down gracefully. The same API is served standalone by
// `pdtl-serve -addr :7200 -graph demo=BASE`; every request below is a curl
// one-liner against it.
//
//	go run ./examples/service
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"pdtl"
	"pdtl/internal/service"
)

func main() {
	dir, err := os.MkdirTemp("", "pdtl-service-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	base := filepath.Join(dir, "rmat")

	// 1. Create a graph store to serve.
	info, err := pdtl.GenerateRMAT(base, 12, 16, 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: %d vertices, %d edges\n", info.NumVertices, info.NumEdges)

	// 2. Start the service: registry of long-lived handles, 2 concurrent
	//    run slots, a bounded wait queue. pdtl-serve wires exactly this
	//    behind flags.
	svc := service.New(service.Config{RunSlots: 2, QueueDepth: 16})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Handler: svc}
	go httpSrv.Serve(ln)
	url := "http://" + ln.Addr().String()
	fmt.Printf("serving on %s\n", url)

	// 3. Register the store under a name.
	//    curl -X POST $URL/v1/graphs -d '{"name":"demo","base":"..."}'
	body, _ := json.Marshal(map[string]string{"name": "demo", "base": base})
	resp, err := http.Post(url+"/v1/graphs", "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("registered: %s\n", resp.Status)

	// 4. Count twice. The first request runs the engine (orienting the
	//    graph and caching the plan on the handle); the identical second
	//    request is answered from the result cache without touching disk.
	//    curl "$URL/v1/graphs/demo/count?workers=2"
	for i := 0; i < 2; i++ {
		resp, err := http.Get(url + "/v1/graphs/demo/count?workers=2")
		if err != nil {
			log.Fatal(err)
		}
		var reply struct {
			Triangles uint64 `json:"triangles"`
			Origin    string `json:"origin"`
			WallNS    int64  `json:"wall_ns"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
			log.Fatal(err)
		}
		resp.Body.Close()
		fmt.Printf("count #%d: %d triangles (origin=%s, %v)\n",
			i+1, reply.Triangles, reply.Origin, time.Duration(reply.WallNS))
	}

	// 5. Stream the first five triangles as NDJSON. Disconnecting a stream
	//    early (here via limit) cancels the engine run behind it.
	//    curl "$URL/v1/graphs/demo/triangles?limit=5"
	resp, err = http.Get(url + "/v1/graphs/demo/triangles?limit=5")
	if err != nil {
		log.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		fmt.Printf("triangle: %s\n", sc.Text())
	}
	resp.Body.Close()

	// 6. A graph's estimate is its exact count under the
	//    server's defaults, cached in the slot of a count without
	//    parameters.
	//    curl -X POST $URL/v1/graphs/demo/estimate
	resp, err = http.Post(url+"/v1/graphs/demo/estimate", "application/json", nil)
	if err != nil {
		log.Fatal(err)
	}
	var est struct {
		Estimate uint64 `json:"estimate"`
		Origin   string `json:"origin"`
		Exact    bool   `json:"exact"`
	}
	err = json.NewDecoder(resp.Body).Decode(&est)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || err != nil || !est.Exact {
		log.Fatalf("estimate: %s (exact=%v, decode: %v)", resp.Status, est.Exact, err)
	}
	fmt.Printf("estimate: %d triangles, exact (origin=%s)\n", est.Estimate, est.Origin)

	// 7. Graceful drain: queued requests get 503s, in-flight runs are
	//    cancelled, handles close. pdtl-serve does this on SIGTERM.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		log.Fatal(err)
	}
	httpSrv.Shutdown(ctx)
	fmt.Println("drained and stopped")
}
