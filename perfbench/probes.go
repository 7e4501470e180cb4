package main

import (
	"fmt"
	"time"

	"gbcr/internal/ib"
	"gbcr/internal/mpi"
	"gbcr/internal/obs"
	"gbcr/internal/sim"
	"gbcr/internal/storage"
)

// Layer probes time one layer's exported functions in isolation. Each runs
// a fixed amount of work, so its figure is host nanoseconds per operation.
// They call nothing unexported, so they keep compiling while the layers'
// internals change.
var probes = []struct {
	name string
	run  func() (float64, error)
}{
	{"sim.switch_ns", probeSwitch},
	{"sim.event_ns", probeEvent},
	{"mpi.eager_msg_ns", func() (float64, error) { return probePingPong(1<<10, 20000) }},
	{"mpi.rndv_msg_ns", func() (float64, error) { return probePingPong(1<<20, 400) }},
	{"storage.recompute_ns", probeRecompute},
}

// probeSwitch is the cost of one process sleep/wake cycle through the
// kernel.
func probeSwitch() (float64, error) {
	const n = 200000
	k := sim.NewKernel(1)
	k.Spawn("p", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(10)
		}
	})
	t := time.Now()
	if err := k.Run(); err != nil {
		return 0, err
	}
	return nsPer(t, n), nil
}

// probeEvent is the cost of scheduling and firing one kernel event.
func probeEvent() (float64, error) {
	const n = 1000000
	k := sim.NewKernel(1)
	fired := 0
	var at sim.Time
	var self func()
	self = func() {
		if fired++; fired < n {
			at += 10
			k.At(at, self)
		}
	}
	k.At(0, self)
	t := time.Now()
	if err := k.Run(); err != nil {
		return 0, err
	}
	return nsPer(t, n), nil
}

// probePingPong is the cost of one message of the given size between two
// ranks on the paper fabric: 1 KiB goes eager, 1 MiB by rendezvous. The
// timing includes every copy the library makes of the payload.
func probePingPong(size, rounds int) (float64, error) {
	k := sim.NewKernel(1)
	f, err := ib.New(k, ib.PaperConfig())
	if err != nil {
		return 0, err
	}
	j, err := mpi.NewJob(k, f, mpi.DefaultConfig(), 2)
	if err != nil {
		return 0, err
	}
	payload := make([]byte, size)
	var got int
	j.Launch(0, func(e *mpi.Env) {
		w := e.World()
		for i := 0; i < rounds; i++ {
			e.Send(w, 1, 0, payload)
			e.Recv(w, 1, 0)
		}
	})
	j.Launch(1, func(e *mpi.Env) {
		w := e.World()
		for i := 0; i < rounds; i++ {
			data, _ := e.Recv(w, 0, 0)
			got += len(data)
			e.Send(w, 0, 0, payload)
		}
	})
	t := time.Now()
	if err := k.Run(); err != nil {
		return 0, err
	}
	if got != size*rounds {
		return 0, fmt.Errorf("ping-pong delivered %d bytes, want %d", got, size*rounds)
	}
	return nsPer(t, 2*rounds), nil
}

// probeRecompute is the cost of one max-min bandwidth recomputation with
// 256 concurrent writers, as in a 256-rank All(N) checkpoint.
func probeRecompute() (float64, error) {
	const writers, rounds = 256, 8
	var recomputes int64
	var elapsed time.Duration
	for r := 0; r < rounds; r++ {
		k := sim.NewKernel(1)
		st, err := storage.New(k, storage.PaperConfig())
		if err != nil {
			return 0, err
		}
		bus := obs.NewBus()
		st.SetObs(bus)
		t := time.Now()
		for i := 0; i < writers; i++ {
			// Distinct sizes, so writers finish one at a time and each
			// completion recomputes the shares of all that remain.
			if _, err := st.Start(int64(64+i) << 20); err != nil {
				return 0, err
			}
		}
		if err := k.Run(); err != nil {
			return 0, err
		}
		elapsed += time.Since(t)
		recomputes += bus.Metrics().Counter(obs.LayerStorage, "rate_recomputes").Value()
	}
	if recomputes == 0 {
		return 0, fmt.Errorf("storage probe saw no rate recomputations")
	}
	return float64(elapsed.Nanoseconds()) / float64(recomputes), nil
}

func nsPer(t time.Time, n int) float64 {
	return float64(time.Since(t).Nanoseconds()) / float64(n)
}
