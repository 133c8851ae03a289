package core

import (
	"bytes"
	"os"
	"testing"

	"github.com/septic-db/septic/internal/sqlparser"
)

// insertWithString returns a parsed INSERT that writes value.
func insertWithString(t *testing.T, value string) sqlparser.Statement {
	t.Helper()
	stmt, err := sqlparser.Parse("INSERT INTO c (body) VALUES ('" +
		sqlparser.EscapeString(value) + "')")
	if err != nil {
		t.Fatal(err)
	}
	return stmt
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return data
}

func mustWrite(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("write %s: %v", path, err)
	}
}

func replaceOnce(data []byte, old, new string) []byte {
	return bytes.Replace(data, []byte(old), []byte(new), 1)
}
