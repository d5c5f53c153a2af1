package livenet

import (
	"reflect"
	"strconv"
	"strings"
	"testing"

	"bdps/internal/core"
	"bdps/internal/msg"
)

// TestRenderMetricsExportsEveryStat pins the exposition to the Stats
// struct: setting any one field must surface on exactly one counter
// line, so a counter added to Stats without its /metrics line fails
// here.
func TestRenderMetricsExportsEveryStat(t *testing.T) {
	typ := reflect.TypeOf(Stats{})
	for i := 0; i < typ.NumField(); i++ {
		var s Stats
		want := 1000 + i
		reflect.ValueOf(&s).Elem().Field(i).SetInt(int64(want))
		var b strings.Builder
		renderCounters(&b, s)
		found := 0
		for _, line := range strings.Split(b.String(), "\n") {
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			f := strings.Fields(line)
			v, err := strconv.Atoi(f[len(f)-1])
			if err != nil {
				t.Fatalf("unparsable exposition line %q", line)
			}
			switch v {
			case want:
				found++
			case 0:
			default:
				t.Errorf("Stats.%s = %d leaked into %q", typ.Field(i).Name, want, line)
			}
		}
		if found != 1 {
			t.Errorf("Stats.%s: %d exposition lines carry it, want 1", typ.Field(i).Name, found)
		}
	}
}

// TestMetricsScrapeDuringRestart scrapes the exposition in a loop while
// a broker crashes and restarts, which swaps the cluster's node map.
// Run with -race it pins that scrapes read the node set under the
// cluster lock.
func TestMetricsScrapeDuringRestart(t *testing.T) {
	c, err := StartCluster(ClusterConfig{
		Overlay:   tinyOverlay(t),
		Scenario:  msg.PSD,
		Strategy:  core.MaxEB{},
		TimeScale: 0.002,
		Seed:      1,
		StateRoot: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	stop := make(chan struct{})
	scrapes := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				scrapes <- n
				return
			default:
			}
			if text := c.RenderMetrics(); !strings.Contains(text, `bdps_broker_up{broker="2"}`) {
				t.Errorf("scrape %d lost broker 2:\n%s", n, text)
			}
			n++
		}
	}()
	for round := 0; round < 3; round++ {
		c.Node(2).Crash()
		if _, err := c.RestartNode(2, nil); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	close(stop)
	if n := <-scrapes; n == 0 {
		t.Fatal("no scrape ran during the restarts")
	}
}
