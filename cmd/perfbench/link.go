package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"

	"cos"
	icos "cos/internal/cos"
)

// link-bulk: one closed-loop Link carrying Ethernet-MTU payloads over the
// default indoor world with adaptive rate and a small control message per
// packet. The erasure Viterbi decoder does almost all of the work.
const (
	linkPayloadBytes = 1500
	linkSNRdB        = 20
	// linkControlBits is requested per packet and clipped to
	// MaxControlBits (rounded down to whole 4-bit intervals).
	linkControlBits = 24
	// linkPacketInterval mirrors the Link's default simulation clock step,
	// so standalone nodes see the same channel times as Link.Send.
	linkPacketInterval = 2e-3
	// linkSetups is how many times a run builds a link (plus its warm-up
	// packet) to time set-up; the median is reported.
	linkSetups = 9
	// replayEvery selects which traced packets the PHY replay re-runs.
	replayEvery = 4
)

func linkOptions(seed int64) []cos.Option {
	return []cos.Option{cos.WithSNR(linkSNRdB), cos.WithSeed(seed)}
}

// linkInputs generates each packet's payload and control bits from the
// seed; the sequence depends only on the seed and the budgets the link
// reports.
type linkInputs struct {
	rng  *rand.Rand
	data []byte
	ctrl []byte
}

func newLinkInputs(seed int64) *linkInputs {
	return &linkInputs{rng: rand.New(rand.NewSource(seed ^ 0x5eed)), data: make([]byte, linkPayloadBytes)}
}

// next returns the next payload and control bits given the link's current
// control budget. Both slices are reused by the following call.
func (in *linkInputs) next(maxBits int) (data, ctrl []byte) {
	in.rng.Read(in.data)
	n := min(linkControlBits, maxBits) / 4 * 4
	in.ctrl = in.ctrl[:0]
	for i := 0; i < n; i++ {
		in.ctrl = append(in.ctrl, byte(in.rng.Intn(2)))
	}
	return in.data, in.ctrl
}

// linkTally accumulates one pass over the link: latencies, quality and
// output checks.
type linkTally struct {
	sendMS     []float64
	wall       time.Duration
	packets    int
	dataOK     int
	ctrlSent   int
	ctrlOK     int
	silences   int
	detection  icos.DetectionStats
	mismatches int
	hashes     [][32]byte
}

// record checks one exchange against the sent payload and folds it into
// the tally.
func (t *linkTally) record(ex *cos.Exchange, sent []byte, lat time.Duration) {
	t.packets++
	t.sendMS = append(t.sendMS, ms(lat))
	if ex.DataOK {
		t.dataOK++
		if !bytes.Equal(ex.Data, sent) {
			t.mismatches++
		}
	}
	if len(ex.ControlSent) > 0 {
		t.ctrlSent++
		if ex.ControlOK {
			t.ctrlOK++
		}
	}
	t.silences += ex.SilencesInserted
	t.detection.Add(ex.Detection)
	t.hashes = append(t.hashes, exchangeHash(ex))
}

// digest is the transcript digest: SHA-256 over the per-exchange hashes.
func (t *linkTally) digest() string {
	h := sha256.New()
	for _, x := range t.hashes {
		h.Write(x[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// exchangeHash hashes every Exchange field except the wall-clock StageNS
// and the optional Probe, by name, so the transcript digest survives
// changes to the stage vocabulary.
func exchangeHash(ex *cos.Exchange) [32]byte {
	h := sha256.New()
	v := reflect.ValueOf(ex).Elem()
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		if name == "StageNS" || name == "Probe" {
			continue
		}
		b, err := json.Marshal(v.Field(i).Interface())
		if err != nil {
			panic(err) // Exchange holds only plain data
		}
		h.Write([]byte(name))
		h.Write(b)
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// newWarmLink builds a link and sends its warm-up packet; the returned
// inputs continue the seed's sequence after that packet.
func newWarmLink(seed int64) (*cos.Link, *linkInputs, error) {
	link, err := cos.NewLink(linkOptions(seed)...)
	if err != nil {
		return nil, nil, err
	}
	in := newLinkInputs(seed)
	maxBits, err := link.MaxControlBits(linkPayloadBytes)
	if err != nil {
		return nil, nil, err
	}
	if _, err := link.Send(in.next(maxBits)); err != nil {
		return nil, nil, err
	}
	return link, in, nil
}

// linkUntraced drives Link.Send closed-loop for d, timing each call.
func linkUntraced(ctx context.Context, seed int64, d time.Duration) (*linkTally, []float64, error) {
	var setups []float64
	var link *cos.Link
	var in *linkInputs
	for i := 0; i < linkSetups; i++ {
		t0 := time.Now()
		var err error
		if link, in, err = newWarmLink(seed); err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	t := &linkTally{}
	start := time.Now()
	for time.Since(start) < d && ctx.Err() == nil {
		maxBits, err := link.MaxControlBits(linkPayloadBytes)
		if err != nil {
			return nil, nil, err
		}
		data, ctrl := in.next(maxBits)
		t0 := time.Now()
		ex, err := link.Send(data, ctrl)
		lat := time.Since(t0)
		if err != nil {
			return nil, nil, fmt.Errorf("Link.Send: %w", err)
		}
		t.record(ex, data, lat)
	}
	t.wall = time.Since(start)
	return t, setups, ctx.Err()
}

func runLinkBulk(ctx context.Context, env *runEnv) (*report, error) {
	rep := newReport()
	if !env.traced {
		t, setups, err := linkUntraced(ctx, env.seed, env.duration)
		if err != nil {
			return nil, err
		}
		rss, err := peakRSSMB(0)
		if err != nil {
			return nil, err
		}
		q, tail := tailQuantile(len(t.sendMS))
		rep.attempted = t.packets
		rep.fail(t.mismatches, "decoded payload differs from the sent bytes")
		rep.e2e["setup_s"] = median(setups)
		rep.e2e["peak_rss_mb"] = rss
		rep.e2e["op_p50_ms"] = median(t.sendMS)
		rep.e2e["ops_per_s"] = float64(t.packets) / t.wall.Seconds()
		rep.detail["link_packets_per_s"] = rep.e2e["ops_per_s"]
		rep.detail["link_send_p50_ms"] = rep.e2e["op_p50_ms"]
		rep.detail["link_send_"+tail+"_ms"] = quantile(t.sendMS, q)
		rep.detail["data_prr"] = ratio(t.dataOK, t.packets)
		rep.detail["control_ok_rate"] = ratio(t.ctrlOK, t.ctrlSent)
		rep.detail["samples"] = t.packets
		rep.detail["transcript_sha256"] = t.digest()
		return rep, nil
	}

	// Traced: an untraced half and a traced half of the same seed, so the
	// run also measures the tracing overhead and checks that the
	// standalone nodes reproduce Link.Send's transcript.
	base, _, err := linkUntraced(ctx, env.seed, env.duration/2)
	if err != nil {
		return nil, err
	}
	tr, err := linkTraced(ctx, env.seed, env.duration/2)
	if err != nil {
		return nil, err
	}
	tr.check(rep)
	if n := min(len(base.hashes), len(tr.tally.hashes)); n == 0 || !slices.Equal(base.hashes[:n], tr.tally.hashes[:n]) {
		rep.fail(1, "standalone-node transcript differs from Link.Send")
	}
	rep.detail["node_transcript_packets_compared"] = min(len(base.hashes), len(tr.tally.hashes))
	tr.layers(rep.layers)
	rep.layers["bench.trace_overhead_frac"] = rep.layers["cos.send_us"]/(1000*median(base.sendMS)) - 1
	rep.detail["phy_layer_sum_tolerance"] = [2]float64{layerSumLow, layerSumHigh}
	if r := rep.layers["phy.layer_sum_ratio"]; r < layerSumLow || r > layerSumHigh {
		rep.detail["phy_layer_sum_warning"] = "PHY layer medians do not add up to the node spans within tolerance"
	}

	// The fleet, serve and client layers come from a short traced fleet
	// run, so every traced run measures every layer of the stack.
	fr, err := fleetRunFor(ctx, env, layerSweep(env), true)
	if err != nil {
		return nil, err
	}
	if err := fr.check(ctx, rep); err != nil {
		return nil, err
	}
	fr.layers(rep.layers)
	return rep, nil
}

// layerSweep is how long a traced run spends measuring the layers of the
// other workload.
func layerSweep(env *runEnv) time.Duration { return min(3*time.Second, env.duration/2) }

// check folds the traced pass's output checks into rep.
func (tr *tracedLink) check(rep *report) {
	rep.attempted += tr.tally.packets + tr.replay.replayed
	rep.fail(tr.tally.mismatches, "decoded payload differs from the sent bytes")
	rep.fail(tr.replay.mismatches, "PHY replay differs from the receive chain")
}

// tracedLink is the traced pass: the Link's three nodes driven by hand,
// each call timed, and every replayEvery-th frame replayed layer by layer.
type tracedLink struct {
	tally               linkTally
	encodeUS, channelUS []float64
	receiveUS, sendUS   []float64
	allocs, allocBytes  uint64
	gcFrac              float64
	replay              *replayer
}

func linkTraced(ctx context.Context, seed int64, d time.Duration) (*tracedLink, error) {
	opts := linkOptions(seed)
	tx, err := cos.NewTransmitter(opts...)
	if err != nil {
		return nil, err
	}
	ch, err := cos.NewChannel(opts...)
	if err != nil {
		return nil, err
	}
	rx, err := cos.NewReceiver(ch, opts...)
	if err != nil {
		return nil, err
	}
	rp, err := newReplayer(seed)
	if err != nil {
		return nil, err
	}
	tr := &tracedLink{replay: rp}
	in := newLinkInputs(seed)
	now := 0.0
	cpu0 := readCPU()
	var ms0, ms1 runtime.MemStats
	start := time.Now()
	// At least one frame is replayed however short d is.
	for seq := 0; (seq <= replayEvery || time.Since(start) < d) && ctx.Err() == nil; seq++ {
		maxBits, err := tx.MaxControlBits(linkPayloadBytes)
		if err != nil {
			return nil, err
		}
		data, ctrl := in.next(maxBits)
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		f, err := tx.Encode(data, ctrl)
		if err != nil {
			return nil, fmt.Errorf("Transmitter.Encode: %w", err)
		}
		t1 := time.Now()
		rxSamples, actualSNR, err := ch.Transmit(f.Samples, now)
		if err != nil {
			return nil, fmt.Errorf("Channel.Transmit: %w", err)
		}
		t2 := time.Now()
		res, err := rx.Receive(f, rxSamples, now)
		if err != nil {
			return nil, fmt.Errorf("Receiver.Receive: %w", err)
		}
		t3 := time.Now()
		// Assemble the exchange where Link.Send does: after the receiver,
		// before the feedback step.
		ex := nodeExchange(seq, now, data, ctrl, f, actualSNR, res)
		if res.FeedbackOK {
			tx.ApplyFeedback(res.Feedback)
		} else {
			tx.NoteLoss()
		}
		t4 := time.Now()
		runtime.ReadMemStats(&ms1)
		if seq == 0 {
			// The warm-up packet, as in linkUntraced: not measured.
			now += linkPacketInterval
			continue
		}
		tr.allocs += ms1.Mallocs - ms0.Mallocs
		tr.allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
		tr.encodeUS = append(tr.encodeUS, us(t1.Sub(t0)))
		tr.channelUS = append(tr.channelUS, us(t2.Sub(t1)))
		tr.receiveUS = append(tr.receiveUS, us(t3.Sub(t2)))
		tr.sendUS = append(tr.sendUS, us(t4.Sub(t0)))
		tr.tally.record(ex, data, t4.Sub(t0))
		if seq%replayEvery == 0 {
			if err := rp.replay(f, rxSamples, now, res.DataOK, res.Data); err != nil {
				return nil, err
			}
		}
		now += linkPacketInterval
	}
	tr.tally.wall = time.Since(start)
	tr.gcFrac = readCPU().gcFrac(cpu0)
	return tr, ctx.Err()
}

// nodeExchange assembles the Exchange Link.Send would have returned for
// the same node outputs, so both paths hash to the same transcript.
func nodeExchange(seq int, now float64, data, ctrl []byte, f *cos.Frame, actualSNR float64, res *cos.RxResult) *cos.Exchange {
	ex := &cos.Exchange{
		Seq:                seq,
		DataBytes:          len(data),
		Mode:               f.Mode,
		Time:               now,
		ControlSubcarriers: f.ControlSubcarriers,
		ActualSNRdB:        actualSNR,
		MeasuredSNRdB:      res.MeasuredSNRdB,
		ControlOK:          res.ControlOK,
		ControlVerified:    res.ControlVerified,
		ControlPayload:     res.ControlPayload,
		Detection:          res.Detection,
	}
	if len(ctrl) > 0 {
		ex.ControlSent = append([]byte(nil), ctrl...)
		ex.SilencesInserted = f.SilencesInserted
	}
	if res.ControlDecoded {
		ex.ControlReceived = append(make([]byte, 0, len(res.ControlReceived)), res.ControlReceived...)
	}
	if res.DataOK {
		ex.DataOK = true
		ex.Data = append(make([]byte, 0, len(res.Data)), res.Data...)
	}
	return ex
}

// layers writes the traced pass's per-layer metrics.
func (tr *tracedLink) layers(out map[string]float64) {
	t := &tr.tally
	out["cos.send_us"] = median(tr.sendUS)
	out["cos.tx_encode_us"] = median(tr.encodeUS)
	out["cos.channel_us"] = median(tr.channelUS)
	out["cos.rx_receive_us"] = median(tr.receiveUS)
	out["cos.allocs_per_pkt"] = float64(tr.allocs) / float64(t.packets)
	out["cos.alloc_bytes_per_pkt"] = float64(tr.allocBytes) / float64(t.packets)
	out["runtime.gc_cpu_frac"] = tr.gcFrac
	out["icos.silences_per_pkt"] = ratio(t.silences, t.packets)
	out["icos.detect_fn_rate"] = t.detection.FalseNegativeRate()
	out["icos.detect_fp_rate"] = t.detection.FalsePositiveRate()
	out["quality.data_prr"] = ratio(t.dataOK, t.packets)
	out["quality.control_ok_rate"] = ratio(t.ctrlOK, t.ctrlSent)
	tr.replay.layers(out)
	nodes := out["cos.tx_encode_us"] + out["cos.channel_us"] + out["cos.rx_receive_us"]
	out["phy.layer_sum_ratio"] = tr.replay.layerSum() / nodes
}

// cpuSample reads the runtime's cumulative CPU accounting.
type cpuSample struct{ gc, total float64 }

func readCPU() cpuSample {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return cpuSample{gc: s[0].Value.Float64(), total: s[1].Value.Float64()}
}

// gcFrac is the share of CPU time spent in GC since an earlier sample.
func (c cpuSample) gcFrac(earlier cpuSample) float64 {
	if d := c.total - earlier.total; d > 0 {
		return (c.gc - earlier.gc) / d
	}
	return 0
}
