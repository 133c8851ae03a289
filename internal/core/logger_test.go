package core

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/septic-db/septic/internal/qstruct"
)

func fixedClock() func() time.Time {
	t0 := time.Date(2017, 6, 26, 9, 0, 0, 0, time.UTC)
	return func() time.Time { return t0 }
}

// TestLoggerSequencesAndCounts: one guard, one learned model, one passed
// check, one blocked attack — the register holds them in sequence under
// the injected clock, and the counts LogCounters used to keep are the
// domain's Stats.
func TestLoggerSequencesAndCounts(t *testing.T) {
	var display strings.Builder // a stream, so the passed check is recorded
	sep := New(Config{Mode: ModeTraining},
		WithLogger(NewLogger(WithClock(fixedClock()), WithStream(&display))))
	_ = sep.BeforeExecute(hookCtxFor(t, fig2Benign))
	sep.SetConfig(DefaultConfig())
	_ = sep.BeforeExecute(hookCtxFor(t, fig2Benign))
	_ = sep.BeforeExecute(hookCtxFor(t, fig3Attack))
	events := sep.Logger().Events()
	want := []EventKind{EventModelLearned, EventModeChanged, EventQueryChecked, EventAttackBlocked}
	if len(events) != len(want) {
		t.Fatalf("got %d events: %v", len(events), events)
	}
	for i, e := range events {
		if e.Seq != int64(i+1) || e.Kind != want[i] {
			t.Errorf("event %d is seq %d %s, want seq %d %s", i, e.Seq, e.Kind, i+1, want[i])
		}
		if !e.Time.Equal(fixedClock()()) {
			t.Errorf("event %d has time %v, want the injected clock", i, e.Time)
		}
	}
	st := sep.Stats()
	if st.ModelsLearned != 1 || st.NewQueries != 0 || st.QueriesChecked != 1 || st.AttacksBlocked != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLoggerCapacityBounded(t *testing.T) {
	l := NewLogger(WithCapacity(10))
	for i := 0; i < 100; i++ {
		l.Log(Event{Kind: EventQueryChecked})
	}
	events := l.Events()
	if len(events) != 10 || len(l.buf) != 10 {
		t.Errorf("a flood of 100 left %d events in %d slots, capacity 10", len(events), len(l.buf))
	}
	// The newest event is retained.
	if events[len(events)-1].Seq != 100 {
		t.Errorf("latest seq = %d, want 100", events[len(events)-1].Seq)
	}
}

// TestLoggerOverwritesOldest is obs.Ring's overwrite test on the register
// that replaced it: a full ring drops the oldest entry, Recent returns
// oldest first, filters by /events group and limits to the newest n.
func TestLoggerOverwritesOldest(t *testing.T) {
	l := NewLogger(WithCapacity(4), WithClock(fixedClock()))
	for i := 0; i < 6; i++ {
		kind := EventModelLearned
		if i%2 == 1 {
			kind = EventAttackBlocked
		}
		l.Log(Event{Kind: kind, Detail: string(rune('a' + i))})
	}
	all := l.Recent("", 0)
	if len(all) != 4 {
		t.Fatalf("recent = %d events, want 4", len(all))
	}
	// Oldest first, and the first two (seq 1,2) were overwritten.
	for i, e := range all {
		if e.Seq != int64(3+i) {
			t.Errorf("sequence window = %d at %d, want [3, 6] in order", e.Seq, i)
		}
	}
	attacks := l.Recent("attack", 0)
	for _, e := range attacks {
		if e.Kind != EventAttackBlocked {
			t.Errorf("filter leaked kind %s", e.Kind)
		}
	}
	if len(attacks) != 2 {
		t.Errorf("attack events = %d, want 2 (seq 4 and 6)", len(attacks))
	}
	if latest := l.Recent("", 1); len(latest) != 1 || latest[0].Seq != 6 {
		t.Errorf("n=1 window = %+v, want the newest event", latest)
	}
	if none := l.Recent("no-such-kind", 0); none == nil || len(none) != 0 {
		t.Errorf("an empty match must be an empty list, not nil: %v", none)
	}
	if !all[0].Time.Equal(fixedClock()()) {
		t.Errorf("event time = %v, want the injected clock", all[0].Time)
	}
}

func TestLoggerStream(t *testing.T) {
	var buf strings.Builder
	l := NewLogger(WithStream(&buf))
	l.Log(Event{Kind: EventAttackBlocked, QueryID: "q1", Attack: AttackSQLI,
		Step: qstruct.StepStructural, Detail: "node count"})
	out := buf.String()
	for _, want := range []string{"attack-blocked", "q1", "sqli", "structural", "node count"} {
		if !strings.Contains(out, want) {
			t.Errorf("stream %q missing %q", out, want)
		}
	}
}

func TestLoggerJSONStream(t *testing.T) {
	var buf strings.Builder
	l := NewLogger(WithClock(fixedClock()), WithJSONStream(&buf))
	l.Log(Event{Kind: EventAttackBlocked, QueryID: "q1", Query: "SELECT 1",
		Attack: AttackSQLI, Step: qstruct.StepStructural, Detail: "count"})
	l.Log(Event{Kind: EventQueryChecked, QueryID: "q2"})

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d: %q", len(lines), buf.String())
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("line 0 is not JSON: %v", err)
	}
	for key, want := range map[string]string{
		"kind": "attack-blocked", "query_id": "q1", "attack": "sqli",
		"step": "structural", "detail": "count", "query": "SELECT 1",
	} {
		if rec[key] != want {
			t.Errorf("record[%s] = %v, want %q", key, rec[key], want)
		}
	}
	if rec["seq"].(float64) != 1 {
		t.Errorf("seq = %v", rec["seq"])
	}
	if _, err := time.Parse(time.RFC3339Nano, rec["time"].(string)); err != nil {
		t.Errorf("time not RFC3339: %v", rec["time"])
	}
	// The benign record omits attack fields.
	rec = nil
	if err := json.Unmarshal([]byte(lines[1]), &rec); err != nil {
		t.Fatal(err)
	}
	if _, present := rec["attack"]; present {
		t.Errorf("benign record carries attack field: %v", rec)
	}
}

func TestLoggerAttacksFilter(t *testing.T) {
	l := NewLogger()
	l.Log(Event{Kind: EventQueryChecked})
	l.Log(Event{Kind: EventAttackDetected, Attack: AttackStored, Plugin: "stored-xss"})
	l.Log(Event{Kind: EventAttackBlocked, Attack: AttackSQLI})
	attacks := l.Attacks()
	if len(attacks) != 2 {
		t.Fatalf("attacks = %d, want 2", len(attacks))
	}
}

func TestLoggerConcurrent(t *testing.T) {
	l := NewLogger(WithCapacity(128))
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				l.Log(Event{Kind: EventQueryChecked})
			}
		}()
	}
	wg.Wait()
	// Nothing lost, nothing duplicated: the ring is full of the newest
	// 128 of 800 sequence numbers, in order.
	events := l.Events()
	if len(events) != 128 {
		t.Fatalf("ring holds %d events, want full (128)", len(events))
	}
	for i, e := range events {
		if e.Seq != int64(800-127+i) {
			t.Fatalf("event %d has seq %d, want %d", i, e.Seq, 800-127+i)
		}
	}
}

func TestEventString(t *testing.T) {
	e := Event{Seq: 7, Kind: EventAttackBlocked, QueryID: "id1",
		Attack: AttackSQLI, Step: qstruct.StepSyntactical, Detail: "node 5"}
	s := e.String()
	for _, want := range []string{"[7]", "attack-blocked", "id=id1", "attack=sqli", "step=syntactical", "node 5"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
	plugin := Event{Seq: 1, Kind: EventAttackDetected, Attack: AttackStored, Plugin: "stored-xss"}
	if !strings.Contains(plugin.String(), "plugin=stored-xss") {
		t.Errorf("String() = %q", plugin.String())
	}
}
