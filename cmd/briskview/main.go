// Command briskview hosts visual objects: it is the remote consumer end
// of the ISM's visualization dispatch (the paper's CORBA visual-object
// framework, reproduced over a framed TCP protocol). Each registered
// object receives the sorted instrumentation stream as PICL strings.
//
// Two built-in objects are provided:
//
//	view  — prints every line to stdout
//	rate  — prints a once-per-second event-rate summary per node
//
// Usage:
//
//	briskview -addr 127.0.0.1:7500
//	ism -visual 127.0.0.1:7500    # attaches the view object
//
// A program attaches the rate object through Manager.AttachVisual.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"brisk/internal/visual"
)

// ratesObject accumulates per-node counts and prints a line each second.
type ratesObject struct {
	mu     sync.Mutex
	counts map[string]int
}

func newRatesObject() *ratesObject {
	r := &ratesObject{counts: make(map[string]int)}
	go func() {
		for range time.Tick(time.Second) {
			r.mu.Lock()
			if len(r.counts) > 0 {
				var parts []string
				total := 0
				for node, c := range r.counts {
					parts = append(parts, fmt.Sprintf("node %s: %d/s", node, c))
					total += c
				}
				fmt.Printf("rate: %d events/s (%s)\n", total, strings.Join(parts, ", "))
				r.counts = make(map[string]int)
			}
			r.mu.Unlock()
		}
	}()
	return r
}

// ProcessPICL implements visual.Object: column 4 of a PICL line is the
// node number.
func (r *ratesObject) ProcessPICL(line string) error {
	cols := strings.Fields(line)
	if len(cols) < 4 {
		return nil
	}
	if _, err := strconv.Atoi(cols[3]); err != nil {
		return nil
	}
	r.mu.Lock()
	r.counts[cols[3]]++
	r.mu.Unlock()
	return nil
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7500", "listen address")
	flag.Parse()

	srv := visual.NewServer()
	srv.Register("view", visual.ObjectFunc(func(line string) error {
		fmt.Println(line)
		return nil
	}))
	srv.Register("rate", newRatesObject())

	bound, err := srv.Listen(*addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "briskview: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("briskview: serving objects [view rate] on %s\n", bound)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	srv.Close()
	fmt.Printf("briskview: %d calls delivered, %d to unknown objects\n",
		srv.Calls.Load(), srv.Unknown.Load())
}
