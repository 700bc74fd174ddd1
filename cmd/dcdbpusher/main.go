// Command dcdbpusher runs a DCDB Pusher daemon: it samples sensors from
// monitoring plugins (here: the simulated hardware backends and the tester
// plugin), hosts the Wintermute ODA framework, exposes the RESTful API and
// forwards readings to a Collect Agent over the MQTT-style transport.
//
// Usage:
//
//	dcdbpusher -node /r01/c01/s01/ -app hpl -mqtt 127.0.0.1:1883 \
//	           -http 127.0.0.1:8080 -config wintermute.json
//
// The -config file is a Wintermute configuration:
//
//	{"plugins": [{"plugin": "aggregator", "config": {...}}]}
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	_ "github.com/dcdb/wintermute/internal/plugins/all"
	"github.com/dcdb/wintermute/internal/pusher"
	"github.com/dcdb/wintermute/internal/rest"
	"github.com/dcdb/wintermute/internal/samplers"
	"github.com/dcdb/wintermute/internal/sensor"
	"github.com/dcdb/wintermute/internal/sim/hardware"
	"github.com/dcdb/wintermute/internal/sim/workload"
	"github.com/dcdb/wintermute/internal/telemetry"
	"github.com/dcdb/wintermute/internal/transport"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dcdbpusher: ")
	var (
		nodePath   = flag.String("node", "/r01/c01/s01/", "component path of this node in the sensor tree")
		app        = flag.String("app", "idle", "simulated application (hpl, lammps, amg, kripke, nekbone, idle)")
		cores      = flag.Int("cores", 16, "simulated cores")
		mqttAddr   = flag.String("mqtt", "", "collect agent broker address (empty: standalone)")
		spool      = flag.Int("spool", 256, "at-least-once spool size in batches (0: QoS 0, at-most-once forwarding)")
		spoolDir   = flag.String("spool-dir", "", "on-disk spool overflow directory (empty: memory-only spool)")
		ackTimeout = flag.Duration("ack-timeout", 0, "broker acknowledgement timeout (0: transport default, 5s)")
		retryMin   = flag.Duration("retry-min", 0, "initial reconnect backoff (0: transport default, 50ms)")
		retryMax   = flag.Duration("retry-max", 0, "reconnect backoff ceiling (0: transport default, 2s)")
		drainTO    = flag.Duration("drain-timeout", 0, "shutdown spool drain bound (0: transport default, 5s)")
		httpAddr   = flag.String("http", "127.0.0.1:0", "REST API listen address")
		interval   = flag.Duration("interval", time.Second, "sampling interval")
		retention  = flag.Duration("retention", 180*time.Second, "sensor cache retention")
		configPath = flag.String("config", "", "Wintermute plugin configuration (JSON)")
		testers    = flag.Int("testers", 0, "additional tester sensors (monotonic counters)")
		threads    = flag.Int("threads", 0, "Wintermute computations run at once (0: GOMAXPROCS)")
		seed       = flag.Int64("seed", 1, "simulation seed")
		debugAddr  = flag.String("debug-addr", "", "diagnostics listen address (pprof + /metrics; keep off the public port)")
		slowQuery  = flag.Duration("slow-query", 0, "log REST requests running at or over this duration (0: off)")
	)
	flag.Parse()

	p, err := pusher.New(pusher.Config{
		Name:           *nodePath,
		CacheRetention: *retention,
		MQTTAddr:       *mqttAddr,
		Transport: transport.Options{
			SpoolBatches: *spool,
			SpoolDir:     *spoolDir,
			AckTimeout:   *ackTimeout,
			RetryMin:     *retryMin,
			RetryMax:     *retryMax,
			DrainTimeout: *drainTO,
		},
		Metrics: telemetry.Default,
	})
	if err != nil {
		log.Fatal(err)
	}
	p.Manager.EnableTelemetry(telemetry.Default)

	node := hardware.NewNode(hardware.Config{Cores: *cores, Seed: *seed})
	node.SetApp(workload.MustNew(*app, *seed, 1e9), time.Now().UnixNano())
	path := sensor.Topic(*nodePath)
	for _, s := range []samplers.Sampler{
		samplers.NewPowerSim(node, path, *interval),
		samplers.NewProcSim(node, path, *interval),
		samplers.NewPerfSim(node, path, *interval),
	} {
		if err := p.AddSampler(s); err != nil {
			log.Fatal(err)
		}
	}
	if *testers > 0 {
		if err := p.AddSampler(samplers.NewTester("tester", path, *testers, *interval)); err != nil {
			log.Fatal(err)
		}
	}

	if *configPath != "" {
		if err := p.Manager.LoadConfigFile(*configPath); err != nil {
			log.Fatal(err)
		}
	}
	// A -threads flag beats the config file's threads field.
	if *threads > 0 {
		p.Manager.SetThreads(*threads)
	}

	srv, err := rest.Serve(*httpAddr, p.Manager, p.QE, rest.Options{
		Metrics:   telemetry.Default,
		SlowQuery: *slowQuery,
	})
	if err != nil {
		log.Fatal(err)
	}
	var dbg *rest.DebugServer
	if *debugAddr != "" {
		dbg, err = rest.ServeDebug(*debugAddr, telemetry.Default)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("diagnostics (pprof + /metrics) on http://%s", dbg.Addr())
	}
	p.Start()
	log.Printf("node %s running %s on %d cores; REST on http://%s; %d sensors; %d wintermute threads",
		*nodePath, *app, *cores, srv.Addr(), p.Nav.NumSensors(), p.Manager.Threads())
	fmt.Printf("REST: http://%s\n", srv.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("shutting down")
	if err := p.Close(); err != nil {
		log.Printf("closing the broker connection: %v", err)
	}
	if dbg != nil {
		_ = dbg.Close()
	}
	_ = srv.Close()
}
