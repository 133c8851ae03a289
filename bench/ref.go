package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"sync"
	"time"
)

// reference is the benchmark's own fixed load. The sandbox host changes
// speed by a quarter from one minute to the next (see README, "Why the
// timings are corrected"), so a run measures the host along with the
// program: short bursts of this load alternate with the segments of the
// workload's closed loop, and every timing is reported at the speed at
// which the host runs the reference at refNominal requests per second.
//
// The load has the shape of the workloads and none of their code:
// numClients goroutines, each repeating one reference request over its
// own loopback connection to an echo goroutine. A request is a JSON
// encode and decode of a small document, a SHA-256 of 4 KiB and one
// round trip of a 64-byte line; for a workload that logs with
// fsync=always it also appends a record to a file and fsyncs it, one
// request at a time as the write-ahead log does, so that the reference
// follows the disk as well as the processor. It uses the standard
// library only and no change to the program can make it faster.
type reference struct {
	ln      net.Listener
	conns   []net.Conn
	servers sync.WaitGroup

	mu   sync.Mutex // serialises the fsynced appends
	file *os.File   // nil without fsync
}

// refNominal and refNominalFsync only set the scale: they are the
// reference rates of a quiet minute on the host the benchmark was
// defined on, so that corrected timings read like measured ones there.
const (
	refNominal      = 75000.0
	refNominalFsync = 4000.0
)

type refDoc struct {
	Name  string
	Vals  []int
	Attrs map[string]string
}

// newReference starts the echo goroutines and connects the clients.
// With fsyncDir set, requests also append to a scratch file there.
func newReference(fsyncDir string) (r *reference, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r = &reference{ln: ln}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	r.servers.Add(1)
	go func() {
		defer r.servers.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			r.servers.Add(1)
			go func() {
				defer r.servers.Done()
				defer c.Close()
				rd := bufio.NewReader(c)
				for {
					line, err := rd.ReadSlice('\n')
					if err != nil {
						return // client closed
					}
					if _, err := c.Write(line); err != nil {
						return
					}
				}
			}()
		}
	}()
	for i := 0; i < numClients; i++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return nil, err
		}
		r.conns = append(r.conns, c)
	}
	if fsyncDir != "" {
		if err = os.MkdirAll(fsyncDir, 0o755); err != nil {
			return nil, err
		}
		if r.file, err = os.CreateTemp(fsyncDir, "reference-*.log"); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// nominal is the rate the corrected timings are scaled to.
func (r *reference) nominal() float64 {
	if r.file != nil {
		return refNominalFsync
	}
	return refNominal
}

// close stops the echo goroutines, waits for them and removes the file.
func (r *reference) close() {
	for _, c := range r.conns {
		_ = c.Close()
	}
	_ = r.ln.Close()
	r.servers.Wait()
	if r.file != nil {
		_ = r.file.Close()
		_ = os.Remove(r.file.Name())
	}
}

// burst repeats the reference request on every connection for d and
// returns the requests completed per second.
func (r *reference) burst(d time.Duration) (rate float64, err error) {
	var wg sync.WaitGroup
	counts := make([]int, len(r.conns))
	errs := make([]error, len(r.conns))
	start := time.Now()
	for g, c := range r.conns {
		wg.Add(1)
		go func(g int, c net.Conn) {
			defer wg.Done()
			doc := refDoc{Name: "reference", Vals: []int{1, 2, 3, 4, 5, 6, 7, 8}, Attrs: map[string]string{"a": "b", "c": "d"}}
			page := make([]byte, 4096)
			line := []byte("0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcde\n")
			record := make([]byte, 300) // a train_wal update is about this long in the log
			rd := bufio.NewReader(c)
			for time.Since(start) < d {
				enc, err := json.Marshal(&doc)
				if err == nil {
					var back refDoc
					err = json.Unmarshal(enc, &back)
				}
				sum := sha256.Sum256(page)
				page[0] = sum[0]
				if err == nil {
					_, err = c.Write(line)
				}
				if err == nil {
					_, err = rd.ReadSlice('\n')
				}
				if err == nil && r.file != nil {
					r.mu.Lock()
					if _, err = r.file.Write(record); err == nil {
						err = r.file.Sync()
					}
					r.mu.Unlock()
				}
				if err != nil {
					errs[g] = err
					return
				}
				counts[g]++
			}
		}(g, c)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	n := 0
	for g := range counts {
		if errs[g] != nil {
			return 0, fmt.Errorf("reference request: %w", errs[g])
		}
		n += counts[g]
	}
	if n == 0 {
		return 0, fmt.Errorf("reference: no request completed in %s", d)
	}
	return float64(n) / elapsed, nil
}
