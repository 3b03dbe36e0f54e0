package llm

import (
	"fmt"
	"strings"
	"testing"
)

func fleetFingerprint(t *testing.T, shards int) (string, *FleetResult) {
	t.Helper()
	res, err := ServeFleet(FleetConfig{
		Instances:           5,
		Shards:              shards,
		Policy:              Policy{Name: "1:1", TopN: 1, LowM: 1},
		Backends:            2,
		RequestsPerInstance: 400,
		Seed:                7,
	})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "end=%.4f epochs=%d served=%d fwd=%d p50=%.4f p99=%.4f\n",
		res.EndNs, res.Epochs, res.Served, res.Forwarded,
		res.Latency.Percentile(50), res.Latency.Percentile(99))
	for i, in := range res.PerInstance {
		fmt.Fprintf(&b, "inst %d: served=%d out=%d in=%d p50=%.4f p99=%.4f\n",
			i, in.Served, in.ForwardedOut, in.ForwardedIn,
			in.Latency.Percentile(50), in.Latency.Percentile(99))
	}
	return b.String(), res
}

// TestFleetByteIdenticalAcrossShards pins the fleet-level determinism
// invariant; make race-shard additionally runs it under the race
// detector.
func TestFleetByteIdenticalAcrossShards(t *testing.T) {
	want, res := fleetFingerprint(t, 1)
	if res.Forwarded == 0 {
		t.Fatalf("no requests were shed across instances; test is vacuous")
	}
	if res.Served != 5*400 {
		t.Fatalf("served %d requests, want %d", res.Served, 5*400)
	}
	for _, shards := range []int{2, 3, 5, 8} {
		got, gres := fleetFingerprint(t, shards)
		if got != want {
			t.Fatalf("shards=%d diverged from shards=1:\nwant:\n%s\ngot:\n%s", shards, want, got)
		}
		if shards <= 5 && gres.Shards != shards {
			t.Fatalf("ran with %d shards, want %d", gres.Shards, shards)
		}
	}
}

func TestFleetValidation(t *testing.T) {
	for name, cfg := range map[string]FleetConfig{
		"zero instances":  {Instances: 0},
		"negative shards": {Instances: 2, Shards: -1},
		"bad backends":    {Instances: 2, Backends: -3},
	} {
		if _, err := ServeFleet(cfg); err == nil {
			t.Fatalf("%s: ServeFleet accepted invalid config", name)
		}
	}
}

func TestFleetSingleInstanceNeverForwards(t *testing.T) {
	res, err := ServeFleet(FleetConfig{Instances: 1, RequestsPerInstance: 200, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Forwarded != 0 {
		t.Fatalf("single instance forwarded %d requests", res.Forwarded)
	}
	if res.Served != 200 {
		t.Fatalf("served %d, want 200", res.Served)
	}
}
