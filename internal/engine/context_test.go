package engine

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/septic-db/septic/internal/faultinject"
)

func TestExecContextCanceledBeforeStart(t *testing.T) {
	db := New()
	if _, err := db.Exec("CREATE TABLE t (id INT)"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := db.Stats()
	_, err := db.ExecAppContext(ctx, "", "SELECT id FROM t")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := db.Stats(); got.Failed != before.Failed+1 || got.Executed != before.Executed {
		t.Errorf("stats after cancel = %+v (before %+v): want one more failed, no executed", got, before)
	}
}

func TestExecContextDeadlineBetweenStages(t *testing.T) {
	db := New()
	if _, err := db.Exec("CREATE TABLE t (id INT)"); err != nil {
		t.Fatal(err)
	}
	// Hold the pipeline at the execute stage boundary until the deadline
	// has expired: it expires while the pipeline is "inside" a slow stage,
	// and the next stage check must catch it.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	faultinject.Arm(func(site string) {
		if site == faultinject.SiteEngineExecute {
			<-ctx.Done()
		}
	})
	defer faultinject.Disarm()
	_, err := db.ExecAppContext(ctx, "", "SELECT id FROM t")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestExecArgsContextHonorsCancellation(t *testing.T) {
	db := New()
	if _, err := db.Exec("CREATE TABLE t (id INT)"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.ExecAppContext(ctx, "", "SELECT id FROM t WHERE id = ?", Int(1)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The live context path still works.
	if _, err := db.ExecAppContext(context.Background(), "", "SELECT id FROM t WHERE id = ?", Int(1)); err != nil {
		t.Fatalf("live context: %v", err)
	}
}
