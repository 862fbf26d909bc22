// Command xcqlsub is the subscriber counterpart to `streamdemo -serve`:
// it registers a standing XCQL query against a running query API over a
// WebSocket and prints each delta as it arrives, until interrupted or
// the server closes the stream.
//
//	xcqlsub -addr 127.0.0.1:9280 'for $t in stream("credit")//transaction return $t'
//	xcqlsub -addr 127.0.0.1:9280 -mode QaC 'count(stream("credit")//transaction)'
//	xcqlsub -addr 127.0.0.1:9280 -json ...   # raw wire frames, one JSON object per line
//
// Closing the connection (interrupt) unregisters the query server-side;
// a registration's lifetime is its socket's lifetime.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"time"

	"xcql/internal/registry"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9280", "query API address (host:port of streamdemo -serve)")
	mode := flag.String("mode", "QaC+", `physical plan: "CaQ", "QaC" or "QaC+"`)
	raw := flag.Bool("json", false, "print raw wire frames as JSON lines instead of formatted deltas")
	timeout := flag.Duration("timeout", 5*time.Second, "dial + handshake timeout")
	flag.Parse()

	query := strings.TrimSpace(strings.Join(flag.Args(), " "))
	if query == "" {
		fmt.Fprintln(os.Stderr, "usage: xcqlsub [-addr host:port] [-mode M] 'XCQL query'")
		os.Exit(2)
	}

	sub, err := registry.DialSubscribe(*addr, registry.RegisterRequest{
		Query: query,
		Mode:  *mode,
	}, *timeout)
	if err != nil {
		log.Fatal(err)
	}
	defer sub.Close()
	fmt.Fprintf(os.Stderr, "registered id=%d group=%q; waiting for deltas (interrupt to unsubscribe)\n",
		sub.ID, sub.Group)

	// an interrupt closes the socket, which is the unregister protocol
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	go func() {
		<-sig
		sub.Close()
	}()

	enc := json.NewEncoder(os.Stdout)
	for {
		res, err := sub.Next()
		if err != nil {
			// normal endings: our own interrupt-triggered close or the
			// server shutting down
			fmt.Fprintf(os.Stderr, "stream closed: %v\n", err)
			return
		}
		if *raw {
			if err := enc.Encode(res); err != nil {
				log.Fatal(err)
			}
			continue
		}
		switch {
		case res.Err != "":
			fmt.Printf("[%s] ERROR: %s\n", res.At, res.Err)
		case res.Degraded != "":
			fmt.Printf("[%s] %s\n", res.At, res.Degraded)
		default:
			for _, item := range res.Delta {
				fmt.Printf("[%s] %s\n", res.At, item)
			}
		}
	}
}
