package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"gpulat/internal/service"
	"gpulat/internal/sim"
)

// cmdServe runs the simulation service: an HTTP JSON API over the
// deduplicating station and the persistent content-addressed result
// cache. Identical jobs submitted by any number of clients run at most
// once per cache lifetime; warm grid re-runs answer in milliseconds.
//
// With -backends (or -coordinator), the same process serves the same
// API as a sharding coordinator instead: it runs no simulations itself,
// routing each job to one of the backend `gpulat serve` processes by
// consistent hashing on its content key (so backend caches stay hot),
// and failing over to the survivors when a backend dies. Membership is
// elastic — backends join and leave at runtime (POST /v1/backends/join,
// `gpulat backends`, or a backend's own -join flag), with cached
// results warm-handed to new owners — and -journal makes in-flight
// grids survive a coordinator restart. Clients cannot tell the
// difference — `gpulat submit` works unchanged against either mode.
func cmdServe(args []string) error {
	fs := newFlags("serve")
	addr := fs.String("addr", "127.0.0.1:8091", "listen address")
	backends := fs.String("backends", "", "comma-separated backend addresses (host:port); run as a sharding coordinator over them instead of simulating locally")
	coordinator := fs.Bool("coordinator", false, "run as a sharding coordinator even with no -backends list (the pool fills via runtime joins)")
	journal := fs.String("journal", "", "coordinator write-ahead journal (JSONL); accepted jobs and membership changes replay on restart")
	joinURL := fs.String("join", "", "coordinator base URL to register this backend with; re-asserts periodically and deregisters on graceful shutdown")
	advertise := fs.String("advertise", "", "address to register via -join (default: the listen address; required when listening on a wildcard address)")
	cacheDir := fs.String("cache-dir", "", "result cache directory (default ~/.cache/gpulat)")
	cacheEntries := fs.Int("cache-entries", 0, "LRU bound on cached results (0 = default)")
	noCache := fs.Bool("no-cache", false, "serve without a persistent cache (in-flight dedup only)")
	queueBound := fs.Int("queue", 4096, "admission bound (station: jobs admitted but not running; coordinator: live keys); overflow → HTTP 503")
	probe := fs.Duration("probe", 250*time.Millisecond, "coordinator health-probe interval (with -backends)")
	jobs := jobsFlag(fs)
	engine := engineFlag(fs)
	quiet := fs.Bool("quiet", false, "suppress the startup banner on stderr")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if _, err := sim.ParseEngine(*engine); err != nil {
		return usagef("%v", err)
	}
	coordMode := *backends != "" || *coordinator
	if coordMode && *joinURL != "" {
		return usagef("serve: -join is a backend-mode flag; a coordinator does not join itself")
	}
	if !coordMode && *journal != "" {
		return usagef("serve: -journal requires coordinator mode (-backends or -coordinator)")
	}
	if *advertise != "" && *joinURL == "" {
		return usagef("serve: -advertise requires -join")
	}

	var svc service.JobService
	var cache *service.Cache
	var banner string
	if coordMode {
		// Coordinator mode: no local cache, no local workers — the
		// backends own both. Refuse station-only flags instead of
		// silently ignoring them (-queue stays meaningful: it bounds the
		// coordinator's live-key admission).
		var incompatible []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "cache-dir", "cache-entries", "no-cache", "j", "engine":
				incompatible = append(incompatible, "-"+f.Name)
			}
		})
		if len(incompatible) > 0 {
			return usagef("serve: %s cannot be combined with coordinator mode (caches, workers, and engines belong to the backends)",
				strings.Join(incompatible, ", "))
		}
		var addrs []string
		for _, a := range strings.Split(*backends, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
		coord, err := service.NewCoordinator(service.CoordinatorConfig{
			Backends:      addrs,
			ProbeInterval: *probe,
			QueueBound:    *queueBound,
			JournalPath:   *journal,
		})
		if err != nil {
			return fmt.Errorf("serve: %w", err)
		}
		defer coord.Close()
		svc = coord
		banner = fmt.Sprintf("coordinator over %d backends", len(addrs))
		if len(addrs) > 0 {
			banner += ": " + strings.Join(addrs, ", ")
		}
		if *journal != "" {
			banner += fmt.Sprintf(", journal %s", *journal)
		}
	} else {
		if !*noCache {
			var err error
			if cache, err = service.OpenCache(*cacheDir, *cacheEntries); err != nil {
				return err
			}
		}
		station := service.NewStation(cache, service.StationConfig{
			Workers:    *jobs,
			QueueBound: *queueBound,
			Engine:     *engine,
		})
		defer station.Close()
		svc = station
		where := "disabled"
		if cache != nil {
			where = cache.Dir()
		}
		workers := *jobs
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		banner = fmt.Sprintf("%d workers, cache %s", workers, where)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	handler := service.NewServer(svc, cache)
	srv := &http.Server{Handler: handler}
	// A graceful drain answers held-open status waits at once instead of
	// sitting out their cap.
	srv.RegisterOnShutdown(handler.ReleaseWaits)

	// Backend registration: with -join, announce this backend to the
	// coordinator once the listener is up (see register).
	var coordClient *service.Client
	adv := ""
	if *joinURL != "" {
		if adv, err = advertiseAddr(*advertise, ln.Addr()); err != nil {
			return err
		}
		coordClient = service.NewClient(*joinURL)
		banner += fmt.Sprintf(", joining %s as %s", *joinURL, adv)
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "gpulat serve: listening on http://%s (%s, %s)\n",
			ln.Addr(), service.Version(), banner)
	}
	regCtx, regStop := context.WithCancel(context.Background())
	defer regStop()
	if coordClient != nil {
		go register(regCtx, coordClient, *joinURL, adv, *quiet)
	}

	// SIGTERM is how process managers (and `make serve-smoke`) stop the
	// server; both it and Ctrl-C get a graceful drain.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	select {
	case err := <-errCh:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case <-ctx.Done():
		regStop()
		if coordClient != nil {
			// Best-effort deregistration: the coordinator drains our keys
			// to the survivors instead of waiting out the failure detector.
			lctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
			_, _ = coordClient.LeaveBackend(lctx, adv)
			cancel()
		}
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(shutdownCtx)
		return nil
	}
}

// register announces this backend to the coordinator as adv, then keeps
// re-asserting until ctx ends — joins are idempotent, and the re-assert
// heals a coordinator that restarted without its journal (or that starts
// after us).
func register(ctx context.Context, coord *service.Client, joinURL, adv string, quiet bool) {
	for {
		jctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		_, err := coord.JoinBackend(jctx, adv)
		cancel()
		if err != nil && !quiet && ctx.Err() == nil {
			fmt.Fprintf(os.Stderr, "gpulat serve: join %s: %v (will retry)\n", joinURL, err)
		}
		select {
		case <-ctx.Done():
			return
		// Jittered so a fleet of backends doesn't re-register in lockstep.
		case <-time.After(8*time.Second + rand.N(4*time.Second)):
		}
	}
}

// advertiseAddr resolves the address a -join backend registers under:
// the explicit -advertise value, or the concrete listen address. A
// wildcard listen host (0.0.0.0, [::]) is not reachable from the
// coordinator, so it must be overridden explicitly.
func advertiseAddr(explicit string, listen net.Addr) (string, error) {
	if explicit != "" {
		return explicit, nil
	}
	host, _, err := net.SplitHostPort(listen.String())
	if err != nil {
		return "", fmt.Errorf("serve: cannot derive -advertise from listen address %q: %w", listen, err)
	}
	if ip := net.ParseIP(host); ip != nil && ip.IsUnspecified() {
		return "", usagef("serve: listening on wildcard %s; -join needs an explicit -advertise host:port", listen)
	}
	return listen.String(), nil
}

// cmdVersion reports the build's identity and the cache scheme tag it
// reads and writes — the tag is how mixed-version fleets avoid serving
// each other results produced under different simulator semantics.
func cmdVersion(args []string) error {
	fs := newFlags("version")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	fmt.Printf("gpulat %s\n", service.Version())
	fmt.Printf("cache scheme: %s\n", service.SchemeTag())
	fmt.Printf("go: %s\n", runtime.Version())
	return nil
}
