package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/internal/repl"
	"repro/internal/wal"
	"repro/qbets"
)

// nodeMain is the benchmark's traced node entry ("perfbench node"). It
// makes exactly the public calls cmd/qbets-serve makes for the flags the
// workloads use, and adds timing wrappers at four seams: an http.Handler
// around Server.ServeHTTP, a wal.FS around OSFS, the commit hook, and a
// repl.Transport around repl.TCP. Spans stay in memory and are written to
// -spans when the node shuts down.
func nodeMain(args []string) int {
	log.SetFlags(0)
	log.SetPrefix("perfbench node: ")
	fs := flag.NewFlagSet("node", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", "127.0.0.1:8080", "listen address")
		statePath   = fs.String("state", "", "state file")
		walDir      = fs.String("wal", "", "write-ahead log directory")
		walSync     = fs.String("wal-sync", "1s", `"always", "off" or an interval`)
		replicateTo = fs.String("replicate-to", "", "leader replication listen address")
		follow      = fs.String("follow", "", "leader replication address to follow")
		epochDir    = fs.String("epoch-dir", "", "replication epoch directory")
		syncRepl    = fs.Bool("sync-replication", false, "ack writes only after a follower acked them")
		spansPath   = fs.String("spans", "spans.json", "where to write the recorded spans at exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	rec := newRecorder()

	server := qbets.NewServer(true, qbets.WithQuantile(0.95), qbets.WithConfidence(0.95))
	if *statePath != "" {
		if err := server.LoadFile(*statePath); err != nil && !os.IsNotExist(err) {
			log.Printf("loading %s: %v", *statePath, err)
			return 1
		}
	}
	var obsLog *wal.WAL
	if *walDir != "" {
		opts := wal.Options{Mode: wal.SyncInterval, Interval: time.Second, FS: timingFS{FS: wal.OSFS{}, rec: rec}}
		switch *walSync {
		case "always":
			opts.Mode = wal.SyncEachRecord
		case "off":
			opts.Mode = wal.SyncOff
		default:
			d, err := time.ParseDuration(*walSync)
			if err != nil {
				log.Printf("-wal-sync: %v", err)
				return 2
			}
			opts.Interval = d
		}
		var err error
		if obsLog, err = wal.Open(*walDir, opts); err != nil {
			log.Print(err)
			return 1
		}
		if _, err := server.Service().RecoverWAL(obsLog); err != nil {
			log.Printf("replaying %s: %v", *walDir, err)
			return 1
		}
	}
	var (
		leader   *repl.Leader
		follower *repl.Follower
	)
	if *replicateTo != "" {
		epochs, err := repl.NewFileEpochStore(*epochDir)
		if err != nil {
			log.Print(err)
			return 1
		}
		stored, err := epochs.Load()
		if err != nil {
			log.Print(err)
			return 1
		}
		if err := epochs.Save(stored + 1); err != nil {
			log.Print(err)
			return 1
		}
		leader = repl.NewLeader(obsLog, server.Service(), repl.LeaderOptions{Epoch: stored + 1, Quorum: 1})
		ln, err := timingTransport{rec: rec}.Listen(*replicateTo)
		if err != nil {
			log.Print(err)
			return 1
		}
		go leader.Serve(ln)
		if *syncRepl {
			server.Service().SetCommitHook(func(seq uint64) error {
				start := time.Now()
				err := leader.CommitWait(seq)
				rec.child(spanCommit, start, 0)
				return err
			})
		}
		server.SetLeaderReplication(leader)
	}
	if *follow != "" {
		epochs, err := repl.NewFileEpochStore(*epochDir)
		if err != nil {
			log.Print(err)
			return 1
		}
		server.Service().SetFollower(true)
		follower, err = repl.NewFollower(server.Service(), repl.FollowerOptions{
			Addr: *follow, Transport: timingTransport{rec: rec}, Epochs: epochs, MaxLag: 10000,
		})
		if err != nil {
			log.Print(err)
			return 1
		}
		go follower.Run()
		server.SetFollowerReplication(follower)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	httpServer := &http.Server{
		Addr:              *addr,
		Handler:           rec.wrap(server),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpServer.ListenAndServe() }()
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Print(err)
			return 1
		}
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = httpServer.Shutdown(shutdownCtx)
	if follower != nil {
		follower.Close()
	}
	if leader != nil {
		leader.Close()
	}
	if err := rec.write(*spansPath); err != nil {
		log.Printf("writing spans: %v", err)
		return 1
	}
	if *statePath != "" {
		if err := server.SaveFile(*statePath); err != nil {
			log.Printf("final state save failed: %v", err)
		}
	}
	if obsLog != nil {
		if err := obsLog.Close(); err != nil {
			log.Printf("wal close: %v", err)
		}
	}
	return 0
}

type spanKind int

const (
	spanWALWrite spanKind = iota
	spanWALSync
	spanCommit
	spanSend
	numSpanKinds
)

// reqSpan is one traced request's handler span plus the time its child
// spans (WAL writes and fsyncs, commit wait) took on the handler's
// goroutine.
type reqSpan struct {
	ID    uint64              `json:"id"`
	Path  string              `json:"path"`
	Start int64               `json:"start"` // Unix ns
	End   int64               `json:"end"`
	Child [numSpanKinds]int64 `json:"child"` // ns per kind
}

// spanFile is what a traced node writes at exit.
type spanFile struct {
	Requests []reqSpan `json:"requests"`
	// Every child span's start (Unix ns), duration (ns) and bytes moved,
	// by kind, attributed to a request or not.
	Starts    [numSpanKinds][]int64 `json:"starts"`
	Durations [numSpanKinds][]int64 `json:"durations"`
	Sizes     [numSpanKinds][]int64 `json:"sizes"`
}

// recorder keeps spans in memory. Child spans are attributed to the
// request whose handler runs on the same goroutine.
type recorder struct {
	mu     sync.Mutex
	active map[uint64]*reqSpan
	out    spanFile
}

func newRecorder() *recorder { return &recorder{active: map[uint64]*reqSpan{}} }

// goid returns the calling goroutine's id from its stack header
// ("goroutine 123 [running]:").
func goid() uint64 {
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	var id uint64
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

func (r *recorder) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		id, _ := strconv.ParseUint(req.Header.Get(requestIDHeader), 10, 64)
		if id == 0 {
			h.ServeHTTP(w, req)
			return
		}
		s := &reqSpan{ID: id, Path: req.URL.Path, Start: time.Now().UnixNano()}
		g := goid()
		r.mu.Lock()
		r.active[g] = s
		r.mu.Unlock()
		h.ServeHTTP(w, req)
		s.End = time.Now().UnixNano()
		r.mu.Lock()
		delete(r.active, g)
		r.out.Requests = append(r.out.Requests, *s)
		r.mu.Unlock()
	})
}

// child records one span at a seam below the handler.
func (r *recorder) child(k spanKind, start time.Time, bytes int) {
	d := time.Since(start).Nanoseconds()
	var g uint64
	if k != spanSend {
		g = goid()
	}
	r.mu.Lock()
	if s := r.active[g]; s != nil && g != 0 {
		s.Child[k] += d
	}
	r.out.Durations[k] = append(r.out.Durations[k], d)
	r.out.Starts[k] = append(r.out.Starts[k], start.UnixNano())
	r.out.Sizes[k] = append(r.out.Sizes[k], int64(bytes))
	r.mu.Unlock()
}

func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	data, err := json.Marshal(&r.out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// timingFS times File.Write and File.Sync on the WAL's segment files.
type timingFS struct {
	wal.FS
	rec *recorder
}

func (f timingFS) OpenAppend(name string) (wal.File, error) {
	file, err := f.FS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return timingFile{File: file, rec: f.rec}, nil
}

type timingFile struct {
	wal.File
	rec *recorder
}

func (f timingFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	f.rec.child(spanWALWrite, start, n)
	return n, err
}

func (f timingFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.rec.child(spanWALSync, start, 0)
	return err
}

// timingTransport times Conn.Send on repl.TCP connections, dialled
// (follower) or accepted (leader).
type timingTransport struct{ rec *recorder }

func (t timingTransport) Dial(addr string) (repl.Conn, error) {
	c, err := repl.TCP{}.Dial(addr)
	if err != nil {
		return nil, err
	}
	return timingConn{Conn: c, rec: t.rec}, nil
}

func (t timingTransport) Listen(addr string) (repl.Listener, error) {
	ln, err := repl.TCP{}.Listen(addr)
	if err != nil {
		return nil, err
	}
	return timingListener{Listener: ln, rec: t.rec}, nil
}

type timingListener struct {
	repl.Listener
	rec *recorder
}

func (l timingListener) Accept() (repl.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return timingConn{Conn: c, rec: l.rec}, nil
}

type timingConn struct {
	repl.Conn
	rec *recorder
}

func (c timingConn) Send(msg []byte) error {
	start := time.Now()
	err := c.Conn.Send(msg)
	c.rec.child(spanSend, start, len(msg))
	return err
}
