package main

import (
	"fmt"
	"net"
	"runtime"
	"sync/atomic"
	"time"

	"ocsml/internal/core"
	"ocsml/internal/protocol"
	"ocsml/internal/transport"
	"ocsml/internal/wire"
)

// appEnvelope is an application message shaped like the workload's: an
// N=4 piggyback of a tentative process, and the workload's payload size.
func appEnvelope(msgBytes int64) *protocol.Envelope {
	set := protocol.NewProcSet(nodes)
	set.Add(1)
	return &protocol.Envelope{
		ID: 1, Src: 0, Dst: 1, Kind: protocol.KindApp,
		Bytes: msgBytes, SentAt: 1,
		App:     protocol.AppMsg{Seq: 1, Bytes: msgBytes, Tag: 7},
		Payload: core.Piggyback{Csn: 3, Stat: core.Tentative, TentSet: set},
	}
}

// evolve changes the piggyback every 32 messages, so the per-connection
// delta encoding sees the occasional tentSet flip a live round produces.
func evolve(e *protocol.Envelope, i int) {
	if i%32 == 0 {
		e.Payload.(core.Piggyback).TentSet.Toggle(i / 32 % nodes)
	}
}

type wireCost struct{ encodeNs, decodeNs, allocs float64 }

// measureWire runs the node's codec path on one connection's frame
// stream: Encoder.EncodeFrame and PeerEncoder.AppendFrame on the send
// side, a per-connection Decoder.DecodeOwned on the receive side. It
// reports the median of reps passes of iters messages each.
func measureWire(msgBytes int64, iters, reps int) (wireCost, error) {
	var enc, dec, allocs []float64
	for r := 0; r < reps; r++ {
		e := appEnvelope(msgBytes)
		var coder wire.Encoder
		var pe wire.PeerEncoder
		f := wire.AcquireFrame()
		buf := make([]byte, 0, iters*64)
		ends := make([]int, iters)
		m0 := mallocs()
		start := now()
		for i := 0; i < iters; i++ {
			evolve(e, i)
			if err := coder.EncodeFrame(f, e); err != nil {
				return wireCost{}, err
			}
			buf, _ = pe.AppendFrame(buf, f)
			ends[i] = len(buf)
		}
		enc = append(enc, float64(since(start).Nanoseconds())/float64(iters))
		m1 := mallocs()
		f.Release()

		d := wire.NewDecoder(0)
		m2 := mallocs()
		start = now()
		from := 0
		for i := 0; i < iters; i++ {
			if _, err := d.DecodeOwned(buf[from:ends[i]]); err != nil {
				return wireCost{}, fmt.Errorf("decode frame %d: %w", i, err)
			}
			from = ends[i]
		}
		dec = append(dec, float64(since(start).Nanoseconds())/float64(iters))
		m3 := mallocs()
		allocs = append(allocs, float64(m1-m0+m3-m2)/float64(iters))
	}
	return wireCost{encodeNs: median(enc), decodeNs: median(dec), allocs: median(allocs)}, nil
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// meshCeiling pushes total workload-shaped app messages through a bare
// two-process loopback Mesh, decoded as a node decodes them, and
// returns the sustained rate: the transport's ceiling with no protocol,
// reliable layer, trace or storage behind it.
func meshCeiling(msgBytes int64, total int) (float64, error) {
	lns := make([]net.Listener, 2)
	addrs := make([]string, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return 0, err
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	var delivered, decodeErrs atomic.Int64
	accept := func(int) func([]byte) {
		d := wire.NewDecoder(0)
		return func(frame []byte) {
			if _, err := d.DecodeOwned(frame); err != nil {
				decodeErrs.Add(1)
			}
			delivered.Add(1)
		}
	}
	sender, err := transport.NewMesh(transport.MeshConfig{ID: 0, Addrs: addrs, Seed: 1},
		lns[0], func(int) func([]byte) { return func([]byte) {} })
	if err != nil {
		lns[0].Close()
		lns[1].Close()
		return 0, err
	}
	receiver, err := transport.NewMesh(transport.MeshConfig{ID: 1, Addrs: addrs, Seed: 2}, lns[1], accept)
	if err != nil {
		lns[1].Close()
		sender.Close()
		return 0, err
	}
	sender.Start()
	receiver.Start()
	defer sender.Close()
	defer receiver.Close()

	e := appEnvelope(msgBytes)
	var coder wire.Encoder
	send := func(i int) error {
		evolve(e, i)
		f := wire.AcquireFrame()
		if err := coder.EncodeFrame(f, e); err != nil {
			f.Release()
			return err
		}
		sender.Send(1, f)
		return nil
	}
	wait := func(n int64) error {
		deadline := now().Add(advanceWait)
		for delivered.Load() < n {
			if now().After(deadline) {
				return fmt.Errorf("mesh delivered %d of %d frames", delivered.Load(), n)
			}
			time.Sleep(50 * time.Microsecond)
		}
		return nil
	}
	if err := send(0); err != nil { // connect before timing
		return 0, err
	}
	if err := wait(1); err != nil {
		return 0, err
	}
	start := now()
	for i := 1; i <= total; i++ {
		// Window the sender below the peer queue so no frame is dropped.
		for int64(i)-delivered.Load() > 4096 {
			time.Sleep(20 * time.Microsecond)
		}
		if err := send(i); err != nil {
			return 0, err
		}
	}
	if err := wait(int64(total) + 1); err != nil {
		return 0, err
	}
	rate := float64(total) / since(start).Seconds()
	if n := decodeErrs.Load(); n != 0 {
		return 0, fmt.Errorf("mesh ceiling: %d frames failed to decode", n)
	}
	if d := sender.Stats().Dropped; d != 0 {
		return 0, fmt.Errorf("mesh ceiling: %d frames dropped", d)
	}
	return rate, nil
}
