package brisk_test

import (
	"io"
	"os"
	"regexp"
	"sort"
	"testing"
	"time"

	"brisk"
	"brisk/internal/ism"
	"brisk/internal/relay"
)

// undriven names the catalogued families this test does not make appear,
// each with the reason.
var undriven = map[string]string{
	"brisk_ols_dropped_full_total": "registered per source at its first drop at the sorter bound; " +
		"the test stages no overload",
}

// catalogued returns every full series name OBSERVABILITY.md mentions in
// backticks (a name followed by its label set counts; a prefix such as
// `brisk_ism_*` does not).
func catalogued(t *testing.T) map[string]bool {
	t.Helper()
	doc, err := os.ReadFile("OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, m := range regexp.MustCompile("`(brisk_[a-z0-9_]*[a-z0-9])[`{]").FindAllSubmatch(doc, -1) {
		names[string(m[1])] = true
	}
	return names
}

// TestObservabilityCatalogueMatchesRegistries runs a manager (two sorter
// shards, subscription engine, PICL log, model-based sync), a relay
// under it and a node under the relay, drives records through all three,
// and holds the brisk_* families they register to the names
// OBSERVABILITY.md lists, in both directions.
func TestObservabilityCatalogueMatchesRegistries(t *testing.T) {
	mgr, err := brisk.StartManager(brisk.ManagerOptions{
		OLSShards:     2,
		MergeInterval: time.Millisecond,
		Subscribe:     &brisk.SubscribeOptions{},
		PICL:          &brisk.PICLOptions{W: io.Discard},
		Sync:          brisk.SyncOptions{Period: 5 * time.Millisecond, UncertaintyBound: 100},
		Logf:          quiet,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	rl, err := relay.New(relay.Config{
		Addr:          "127.0.0.1:0",
		Parent:        mgr.Addr(),
		ISM:           ism.Config{MergeInterval: time.Millisecond},
		FlushInterval: time.Millisecond,
		Logf:          quiet,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rl.Close()
	node, err := brisk.ConnectNode(brisk.NodeOptions{
		ManagerAddr:   rl.Addr(),
		Name:          "n",
		FlushInterval: time.Millisecond,
		Logf:          quiet,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	s := node.NewSensor("app")
	const n = 200
	for i := 0; i < n; i++ {
		if !s.Notice6i(7, int32(i), 1, 2, 3, 4, 5) {
			t.Fatalf("notice %d dropped", i)
		}
	}
	node.Flush()

	registries := []*brisk.Metrics{mgr.Metrics(), rl.Metrics(), node.Metrics()}
	registered := func() map[string]bool {
		names := map[string]bool{}
		for _, reg := range registries {
			for _, f := range reg.Snapshot() {
				names[f.Name] = true
			}
		}
		return names
	}
	// The drift gauge appears once the root's model has a round's
	// estimate of its slave (the relay).
	deadline := time.Now().Add(10 * time.Second)
	for mgr.Stats().Emitted < n || !registered()["brisk_sync_drift_ppm"] {
		if time.Now().After(deadline) {
			t.Fatalf("pipeline not driven: root emitted %d of %d, drift gauge registered %v",
				mgr.Stats().Emitted, n, registered()["brisk_sync_drift_ppm"])
		}
		time.Sleep(5 * time.Millisecond)
	}

	docs, got := catalogued(t), registered()
	var undocumented, missing []string
	for name := range got {
		if !docs[name] {
			undocumented = append(undocumented, name)
		}
	}
	for name := range docs {
		if !got[name] && undriven[name] == "" {
			missing = append(missing, name)
		}
	}
	sort.Strings(undocumented)
	sort.Strings(missing)
	if len(undocumented) > 0 {
		t.Errorf("registered but not in OBSERVABILITY.md: %v", undocumented)
	}
	if len(missing) > 0 {
		t.Errorf("in OBSERVABILITY.md but not registered by a running manager, relay and node: %v", missing)
	}
	for name := range undriven {
		if !docs[name] {
			t.Errorf("undriven %s is not in OBSERVABILITY.md any more: drop it from the list", name)
		}
	}
}
