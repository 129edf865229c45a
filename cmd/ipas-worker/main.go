// Command ipas-worker executes fault-injection shards leased from a
// campaignd coordinator, one lease at a time. It rebuilds each campaign
// from the spec in the lease grant, refuses leases whose campaign
// fingerprint disagrees with its own build, and runs the shard's
// unsettled trials one by one, posting each as a journal segment and
// waiting for the coordinator's durable ack before starting the next.
// Run as many workers as you like, on as many machines as reach the
// coordinator; killing one mid-shard only costs the trial in flight.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ipas/internal/campaign"
)

func main() {
	server := flag.String("server", "http://127.0.0.1:7077", "coordinator base URL")
	name := flag.String("name", "", "worker name shown in progress reports (default host-pid)")
	poll := flag.Duration("poll", 200*time.Millisecond, "idle re-poll interval when no shard is available")
	flag.Parse()

	if *name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		*name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	w := &campaign.Worker{Server: *server, Name: *name, Poll: *poll}
	fmt.Fprintf(os.Stderr, "ipas-worker %s: polling %s\n", *name, *server)
	err := w.Run(ctx)
	if err != nil && !errors.Is(err, context.Canceled) {
		fmt.Fprintf(os.Stderr, "ipas-worker %s: %v\n", *name, err)
		os.Exit(1)
	}
}
