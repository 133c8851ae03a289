package core

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"github.com/septic-db/septic/internal/faultinject"
	"github.com/septic-db/septic/internal/qstruct"
	"github.com/septic-db/septic/internal/sqlparser"
)

func modelFor(t *testing.T, query string) qstruct.Model {
	t.Helper()
	stmt, err := sqlparser.Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	return qstruct.ModelOf(qstruct.BuildStack(stmt))
}

func TestStorePutDedupesByFingerprint(t *testing.T) {
	s := NewStore()
	m := modelFor(t, "SELECT a FROM t WHERE b = 1")
	if !s.Put("id1", m, false) {
		t.Fatal("first Put should add")
	}
	if s.Put("id1", m, false) {
		t.Fatal("identical model must not be re-added")
	}
	if s.Len() != 1 || s.ModelCount() != 1 {
		t.Errorf("len=%d models=%d", s.Len(), s.ModelCount())
	}
}

func TestStoreHoldsModelSetsPerID(t *testing.T) {
	s := NewStore()
	byName := modelFor(t, "SELECT id FROM devices ORDER BY name")
	byLocation := modelFor(t, "SELECT id FROM devices ORDER BY location")
	if !s.Put("devices", byName, false) || !s.Put("devices", byLocation, false) {
		t.Fatal("both variants should be added")
	}
	if s.Len() != 1 {
		t.Errorf("ids = %d, want 1", s.Len())
	}
	if s.ModelCount() != 2 {
		t.Errorf("models = %d, want 2", s.ModelCount())
	}
	models, ok := s.Get("devices")
	if !ok || models.Len() != 2 {
		t.Fatalf("Get = %v, %t", models, ok)
	}
}

func TestModelViewEmpty(t *testing.T) {
	var zero ModelView
	if !zero.Empty() || zero.Len() != 0 {
		t.Error("zero view must be empty")
	}
	v := ViewOf(modelFor(t, "SELECT 1"))
	if v.Empty() || v.Len() != 1 {
		t.Errorf("ViewOf one model: Empty=%t Len=%d", v.Empty(), v.Len())
	}
}

func TestStoreGetIsCopyOnWrite(t *testing.T) {
	s := NewStore()
	s.Put("id", modelFor(t, "SELECT 1"), false)
	before, _ := s.Get("id")
	if before.Len() != 1 {
		t.Fatalf("before.Len() = %d, want 1", before.Len())
	}
	// A later Put publishes a new slice; the view already fetched must
	// keep its contents (readers hold it lock-free).
	if !s.Put("id", modelFor(t, "SELECT 1 ORDER BY 1"), false) {
		t.Fatal("variant should be added")
	}
	if before.Len() != 1 || len(before.At(0).Nodes) == 0 {
		t.Error("Put mutated a view a previous Get returned")
	}
	after, _ := s.Get("id")
	if after.Len() != 2 {
		t.Errorf("after.Len() = %d, want 2", after.Len())
	}
}

func TestStoreSaveLoadRoundTripsModelSets(t *testing.T) {
	path := filepath.Join(t.TempDir(), "models.json")
	s := NewStore()
	s.Put("devices", modelFor(t, "SELECT id FROM devices ORDER BY name"), false)
	s.Put("devices", modelFor(t, "SELECT id FROM devices ORDER BY location"), false)
	s.Put("other", modelFor(t, "DELETE FROM logs WHERE ts < 5"), false)
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded := NewStore()
	if err := loaded.Load(path); err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != 2 || loaded.ModelCount() != 3 {
		t.Errorf("loaded len=%d models=%d, want 2/3", loaded.Len(), loaded.ModelCount())
	}
	models, _ := loaded.Get("devices")
	if models.Len() != 2 {
		t.Errorf("devices models = %d, want 2", models.Len())
	}
}

// TestStoreSaveLoadUnderConcurrentChurn snapshots a store WHILE writers
// churn it: Save must always produce an internally consistent file (it
// holds each shard's read lock while walking it), so every snapshot
// must load cleanly — fingerprints intact, stable identifiers always
// present, churned identifiers either fully present or fully absent.
// Run under -race this also pins Save/Put/Delete lock discipline.
func TestStoreSaveLoadUnderConcurrentChurn(t *testing.T) {
	s := NewStore()
	stable := map[string]qstruct.Model{
		"stable:a": modelFor(t, "SELECT id FROM devices ORDER BY name"),
		"stable:b": modelFor(t, "DELETE FROM logs WHERE ts < 5"),
		"stable:c": modelFor(t, "INSERT INTO readings (v) VALUES (1)"),
	}
	for id, m := range stable {
		s.Put(id, m, false)
	}
	churned := []string{"churn:x", "churn:y", "churn:z"}
	churnModel := modelFor(t, "UPDATE devices SET name = 'n' WHERE id = 1")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := churned[w%len(churned)]
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if i%2 == 0 {
					s.Put(id, churnModel, false)
				} else {
					s.Delete(id)
				}
			}
		}(w)
	}

	dir := t.TempDir()
	for i := 0; i < 25; i++ {
		path := filepath.Join(dir, "snap.json")
		if err := s.Save(path); err != nil {
			t.Fatalf("Save #%d under churn: %v", i, err)
		}
		loaded := NewStore()
		if err := loaded.Load(path); err != nil {
			t.Fatalf("Load #%d of churned snapshot: %v", i, err)
		}
		for id := range stable {
			models, ok := loaded.Get(id)
			if !ok || models.Len() != 1 {
				t.Fatalf("snapshot #%d lost stable id %q (ok=%t)", i, id, ok)
			}
		}
		for _, id := range churned {
			if models, ok := loaded.Get(id); ok && models.Len() != 1 {
				t.Fatalf("snapshot #%d has torn set for %q: %d models", i, id, models.Len())
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestDomainStoresSaveLoadIndependently churns one protection domain's
// store while snapshotting another's: the partitions are separate Store
// instances, so a domain's persisted file must contain exactly its own
// identifiers no matter what its neighbours are doing — the persistence
// half of the isolation contract.
func TestDomainStoresSaveLoadIndependently(t *testing.T) {
	sep := New(Config{Mode: ModeTraining})
	alpha, err := sep.RegisterDomain("alpha", Config{Mode: ModeTraining, IncrementalLearning: true})
	if err != nil {
		t.Fatal(err)
	}
	beta, err := sep.RegisterDomain("beta", Config{Mode: ModeTraining, IncrementalLearning: true})
	if err != nil {
		t.Fatal(err)
	}
	m := modelFor(t, "SELECT id FROM devices WHERE id = 1")
	beta.Store().Put("beta:q1", m, false)
	beta.Store().Put("beta:q2", modelFor(t, "SELECT 1"), false)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				alpha.Store().Put("alpha:q1", m, false)
			} else {
				alpha.Store().Delete("alpha:q1")
			}
		}
	}()

	dir := t.TempDir()
	for i := 0; i < 10; i++ {
		path := filepath.Join(dir, "beta.json")
		if err := beta.Store().Save(path); err != nil {
			t.Fatalf("beta Save #%d: %v", i, err)
		}
		loaded := NewStore()
		if err := loaded.Load(path); err != nil {
			t.Fatalf("beta Load #%d: %v", i, err)
		}
		if loaded.Len() != 2 {
			t.Fatalf("beta snapshot #%d has %d ids, want 2", i, loaded.Len())
		}
		for _, id := range loaded.IDs() {
			if !strings.HasPrefix(id, "beta:") {
				t.Fatalf("beta snapshot #%d contains foreign id %q", i, id)
			}
		}
	}
	close(stop)
	wg.Wait()

	// And the round trip restores a partition in place: load beta's file
	// into alpha's store (a restart with swapped paths would do this) and
	// the store carries exactly the file's contents.
	path := filepath.Join(dir, "beta.json")
	if err := alpha.Store().Load(path); err != nil {
		t.Fatal(err)
	}
	if alpha.Store().Len() != 2 {
		t.Errorf("restored store has %d ids, want 2", alpha.Store().Len())
	}
}

func TestStoreLoadRejectsWrongVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "models.json")
	mustWrite(t, path, []byte(`{"version": 99, "models": {}, "sums": {}}`))
	if err := NewStore().Load(path); err == nil {
		t.Fatal("wrong version must be rejected")
	}
}

func TestStoreLoadMissingFile(t *testing.T) {
	if err := NewStore().Load(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Fatal("missing file must error")
	}
}

func TestStoreDeleteRemovesWholeSet(t *testing.T) {
	s := NewStore()
	s.Put("id", modelFor(t, "SELECT 1"), false)
	s.Put("id", modelFor(t, "SELECT 1, 2"), false)
	s.Delete("id")
	if _, ok := s.Get("id"); ok {
		t.Error("Delete left models behind")
	}
}

// TestSingleModelAblation reproduces the paper's one-model-per-ID
// behaviour by limiting the detector to the first learned model: the
// second legitimate variant is then flagged — the false positive the
// model-set extension removes.
func TestSingleModelAblation(t *testing.T) {
	byName := modelFor(t, "SELECT id FROM devices ORDER BY name")
	variantStmt, err := sqlparser.Parse("SELECT id FROM devices ORDER BY location")
	if err != nil {
		t.Fatal(err)
	}
	variant := qstruct.BuildStack(variantStmt)
	det := NewDetector(DefaultPlugins())

	// Paper behaviour: only the first model.
	if _, attack := det.DetectSQLI(variant, ViewOf(byName)); !attack {
		t.Error("single-model: variant should be flagged (the documented FP)")
	}
	// Extension: the set contains both.
	byLocation := modelFor(t, "SELECT id FROM devices ORDER BY location")
	if _, attack := det.DetectSQLI(variant, ViewOf(byName, byLocation)); attack {
		t.Error("model-set: trained variant should pass")
	}
}

func TestDetectorPrefersSyntacticalVerdict(t *testing.T) {
	det := NewDetector(DefaultPlugins())
	// Two models: one longer (structural mismatch), one same-length
	// (syntactical mismatch). The reported verdict should be the
	// syntactical one — the closest explanation.
	longer := modelFor(t, "SELECT id FROM t WHERE a = 1 AND b = 2")
	sameLen := modelFor(t, "SELECT id FROM t WHERE a = 'x'")
	qsStmt, err := sqlparser.Parse("SELECT id FROM t WHERE a = c")
	if err != nil {
		t.Fatal(err)
	}
	qs := qstruct.BuildStack(qsStmt)
	d, attack := det.DetectSQLI(qs, ViewOf(longer, sameLen))
	if !attack {
		t.Fatal("mismatching query not flagged")
	}
	if d.Step != qstruct.StepSyntactical {
		t.Errorf("step = %s, want syntactical (closest model)", d.Step)
	}
}

func TestStoreSaveCrashKeepsOldSnapshot(t *testing.T) {
	// A save that dies at any kill point — before the temp file is
	// durable, or between durability and the rename — must leave the
	// previous snapshot readable and byte-identical: the atomic
	// publication protocol (temp + fsync + rename + dir fsync) never
	// exposes a torn file.
	path := filepath.Join(t.TempDir(), "models.json")
	s := NewStore()
	s.Put("stable", modelFor(t, "SELECT a FROM t WHERE b = 1"), false)
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s.Put("newer", modelFor(t, "SELECT c FROM u WHERE d = 2"), false)

	for _, site := range []string{
		faultinject.SiteStoreSave,
		faultinject.SiteAtomicWrite,
		faultinject.SiteAtomicRename,
	} {
		t.Run(site, func(t *testing.T) {
			faultinject.Arm(faultinject.KillPoint(site, 1))
			defer faultinject.Disarm()
			func() {
				defer func() {
					if r := recover(); r != nil && !faultinject.IsCrash(r) {
						panic(r)
					}
				}()
				_ = s.Save(path)
			}()
			after, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("snapshot unreadable after crash at %s: %v", site, err)
			}
			if string(after) != string(good) {
				t.Fatalf("crash at %s left a changed snapshot", site)
			}
			restored := NewStore()
			if err := restored.Load(path); err != nil {
				t.Fatalf("snapshot unloadable after crash at %s: %v", site, err)
			}
		})
	}
	// With no kill point armed the save goes through and the new
	// snapshot loads with both identifiers.
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	restored := NewStore()
	if err := restored.Load(path); err != nil {
		t.Fatal(err)
	}
	if restored.Len() != 2 {
		t.Fatalf("restored %d identifiers, want 2", restored.Len())
	}
}

func TestStoreLoadRejectsMalformedFiles(t *testing.T) {
	// Load must reject what a plain json.Unmarshal forgives. The
	// duplicate-identifier case matters because last-one-wins silently
	// DROPS learned models — a narrowed store means false positives; the
	// size cap stops one ballooned record from swallowing boot memory.
	big := strings.Repeat("x", maxPersistedSetBytes)
	cases := []struct {
		name string
		data string
		want string
	}{
		{
			name: "duplicate identifier",
			data: `{"version": 3, "sets": {"q1": {"models": []}, "q1": {"models": []}}}`,
			want: `duplicate member "q1"`,
		},
		{
			name: "oversized record",
			data: `{"version": 3, "sets": {"q1": {"models": [], "pad": "` + big + `"}}}`,
			want: "exceeds",
		},
		{
			name: "not an object",
			data: `[1, 2, 3]`,
			want: "cannot unmarshal array",
		},
		{
			name: "sets not an object",
			data: `{"version": 3, "sets": [1]}`,
			want: "not a JSON object",
		},
		{
			name: "truncated",
			data: `{"version": 3, "sets": {"q1": {"mod`,
			want: "",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "models.json")
			mustWrite(t, path, []byte(tc.data))
			err := NewStore().Load(path)
			if err == nil {
				t.Fatalf("%s accepted", tc.name)
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	// Unknown top-level fields are forward-compatible, not an error.
	path := filepath.Join(t.TempDir(), "models.json")
	mustWrite(t, path, []byte(`{"version": 3, "future": {"a": 1}, "sets": {}}`))
	if err := NewStore().Load(path); err != nil {
		t.Fatalf("unknown top-level field rejected: %v", err)
	}
}

// TestVerifySetsRequiresOneSumPerModel: a record pairing fewer (or
// more) fingerprints than models is corrupt in itself — a truncated
// Sums array must not let the unmatched models bypass verification.
func TestVerifySetsRequiresOneSumPerModel(t *testing.T) {
	m := modelFor(t, "SELECT a FROM t WHERE b = 1")
	good := map[string]persistedSet{"q": {Models: []qstruct.Model{m}, Sums: []uint64{m.Fingerprint()}}}
	if err := verifySets(good); err != nil {
		t.Fatalf("well-formed set rejected: %v", err)
	}
	bad := map[string]map[string]persistedSet{
		"missing sums":   {"q": {Models: []qstruct.Model{m}}},
		"truncated sums": {"q": {Models: []qstruct.Model{m, m}, Sums: []uint64{m.Fingerprint()}}},
		"surplus sums":   {"q": {Models: []qstruct.Model{m}, Sums: []uint64{m.Fingerprint(), 7}}},
		"wrong sum":      {"q": {Models: []qstruct.Model{m}, Sums: []uint64{m.Fingerprint() + 1}}},
	}
	for name, sets := range bad {
		if verifySets(sets) == nil {
			t.Fatalf("%s accepted", name)
		}
	}
}

// TestStoreLoadRejectsTruncatedSums drives the same property through
// the full Load path on a real snapshot with its sums array emptied.
func TestStoreLoadRejectsTruncatedSums(t *testing.T) {
	path := filepath.Join(t.TempDir(), "models.json")
	s := NewStore()
	s.Put("q1", modelFor(t, "SELECT a FROM t WHERE b = 1"), false)
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	edited := regexp.MustCompile(`(?s)"sums": \[.*?\]`).ReplaceAll(data, []byte(`"sums": []`))
	if string(edited) == string(data) {
		t.Fatal("snapshot edit found no sums array")
	}
	mustWrite(t, path, edited)
	if err := NewStore().Load(path); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("snapshot with truncated sums accepted: %v", err)
	}
}

// TestStoreDump covers the /qm introspection rendering: sorted ids,
// hit counts, and top-down node stacks.
func TestStoreDump(t *testing.T) {
	s := NewStore()
	s.Put("zz", modelFor(t, "SELECT a FROM t WHERE b = 1"), false)
	s.Put("aa", modelFor(t, "SELECT name FROM users WHERE id = 2"), true)
	if _, ok := s.Get("aa"); !ok { // one hit for aa
		t.Fatal("get aa")
	}

	dump := s.Dump()
	if len(dump) != 2 || dump[0].ID != "aa" || dump[1].ID != "zz" {
		t.Fatalf("dump not sorted by id: %+v", dump)
	}
	if dump[0].Hits != 1 || !dump[0].Incremental {
		t.Fatalf("aa metadata: %+v", dump[0])
	}
	if len(dump[0].Models) != 1 || len(dump[0].Models[0]) == 0 {
		t.Fatalf("aa has no rendered stack: %+v", dump[0].Models)
	}
	for _, node := range dump[0].Models[0] {
		if node == "" {
			t.Fatal("empty rendered node")
		}
	}
}
