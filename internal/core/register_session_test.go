package core

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"github.com/septic-db/septic/internal/faultinject"
	"github.com/septic-db/septic/internal/obs"
	"github.com/septic-db/septic/internal/wal"
)

// sessionClock ticks one second per reading from the paper's conference
// week, so every record's timestamp is its position in the session.
func sessionClock() func() time.Time {
	now := time.Date(2017, 6, 26, 9, 0, 0, 0, time.UTC)
	return func() time.Time {
		now = now.Add(time.Second)
		return now
	}
}

// cutStack removes the goroutine dump a guard-fault detail carries — it
// names source lines. On the display it is the lines that do not start a
// record ("[seq] ..."); in JSON it is the escaped tail of the detail.
func cutStack(name, got string) string {
	if name != "display.golden" {
		return jsonStack.ReplaceAllString(got, "")
	}
	var b strings.Builder
	for _, line := range strings.SplitAfter(got, "\n") {
		if strings.HasPrefix(line, "[") {
			b.WriteString(line)
		}
	}
	return b.String()
}

var jsonStack = regexp.MustCompile(`\\ngoroutine (?:[^"\\]|\\.)*`)

// TestRegisterSessionGoldens replays one scripted session and compares
// three views of the register with recordings. display.golden and
// audit.golden were recorded at the commit before the two registers became
// one and must never be regenerated from this code: that they still match
// byte for byte is the proof that the display and the -audit file did not
// move. events.parent.golden is that commit's /events body, kept to prove
// what the one record changed there (see eventsKeepParentShape).
func TestRegisterSessionGoldens(t *testing.T) {
	var display, audit bytes.Buffer
	cfg := DefaultConfig()
	cfg.Mode = ModeTraining
	sep := New(cfg, WithLogger(NewLogger(
		WithClock(sessionClock()), WithStream(&display), WithJSONStream(&audit))))
	run := func(q string) { _ = sep.BeforeExecute(hookCtxFor(t, q)) }

	// Train two queries, register a domain, switch to prevention.
	run(fig2Benign)
	run("INSERT INTO comments (body) VALUES ('nice post')")
	if _, err := sep.RegisterDomain("shop", DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	sep.SetMode(ModePrevention)
	// Three benign repeats: one full check, two verdict-cache hits.
	for i := 0; i < 3; i++ {
		run(fig2Benign)
	}
	// Fig. 3 (structural) and Fig. 4 (syntactical) SQLI.
	run(fig3Attack)
	run("SELECT * FROM tickets WHERE reservID = 'ID34FG' AND 1=1-- ' AND creditCard = 0")
	// One stored injection per plugin.
	run("INSERT INTO comments (body) VALUES ('<script>alert(1)</script>')")
	run("INSERT INTO comments (body) VALUES ('../../etc/passwd')")
	run("INSERT INTO comments (body) VALUES ('x; cat secrets | mail evil')")
	// One contained guard fault.
	faultinject.Arm(func(site string) {
		if site == faultinject.SiteCoreDetect {
			panic("injected detector fault")
		}
	})
	run("INSERT INTO comments (body) VALUES ('hello')")
	faultinject.Disarm()
	// One failed WAL append. The sink is bound directly: AttachPersistence
	// would also emit its recovery record, which the recorded commit
	// showed on /events only (TestEveryEmitSiteReachesEveryView covers it).
	log, _, err := wal.Open(wal.Options{Dir: t.TempDir(), Policy: wal.FsyncNever},
		func(wal.Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	(&Persistence{sep: sep, log: log}).bind(sep.def)
	faultinject.ArmErr(faultinject.FailPoint(faultinject.SiteWALAppend, 1))
	run("SELECT name FROM users WHERE id = 7")
	faultinject.DisarmErr()

	rec := httptest.NewRecorder()
	obs.Handler(obs.NewHub(), nil, func(kind string, n int) any {
		return sep.Logger().Recent(kind, n)
	}).ServeHTTP(rec, httptest.NewRequest("GET", "/events", nil))

	for name, got := range map[string]string{
		"display.golden": display.String(),
		"audit.golden":   audit.String(),
		"events.golden":  rec.Body.String(),
	} {
		got = cutStack(name, got)
		path := filepath.Join("testdata", "register", name)
		if *update && name == "events.golden" {
			mustWrite(t, path, []byte(got))
			continue
		}
		if want := string(mustRead(t, path)); got != want {
			t.Errorf("%s differs from the recording\n--- want\n%s--- got\n%s", name, want, got)
		}
	}
	eventsKeepParentShape(t, cutStack("", rec.Body.String()),
		string(mustRead(t, filepath.Join("testdata", "register", "events.parent.golden"))))
}

// eventsKeepParentShape proves what /events gained and lost: the records
// the old ring held are all still there, in order, with every field name
// and value they had — except seq (now the register's), time (one clock),
// and detail, which is the display's wording now that the domain it used
// to spell out is a field. New are the domain on every record that has
// one, the query a model was learned from (the display's record always had
// it), and the passed checks a watching stream makes the register keep.
func eventsKeepParentShape(t *testing.T, now, parent string) {
	t.Helper()
	var got, want []map[string]any
	if err := json.Unmarshal([]byte(now), &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(parent), &want); err != nil {
		t.Fatal(err)
	}
	kept := got[:0]
	for _, rec := range got {
		if rec["kind"] != "checked" {
			kept = append(kept, rec)
		}
	}
	if len(got)-len(kept) != 3 || len(kept) != len(want) {
		t.Fatalf("/events holds %d records (%d of them passed checks), the parent held %d",
			len(got), len(got)-len(kept), len(want))
	}
	for i, old := range want {
		rec := kept[i]
		for key, v := range old {
			switch key {
			case "seq", "time":
			case "detail":
				if rec[key] == nil {
					t.Errorf("record %d lost its detail (%v)", i, v)
				}
			default:
				if !reflect.DeepEqual(rec[key], v) {
					t.Errorf("record %d: %s = %v, the parent had %v", i, key, rec[key], v)
				}
			}
		}
		for key := range rec {
			if _, had := old[key]; !had && key != "domain" && !(key == "query" && rec["kind"] == "store") {
				t.Errorf("record %d gained %q", i, key)
			}
		}
		if rec["domain"] == nil {
			t.Errorf("record %d (%v) names no domain", i, rec["kind"])
		}
	}
}
