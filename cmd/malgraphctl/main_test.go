package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunRequiresCommand(t *testing.T) {
	if err := run(nil); err == nil || !strings.Contains(err.Error(), "usage") {
		t.Fatalf("no-args error = %v", err)
	}
	if err := run([]string{"bogus"}); err == nil || !strings.Contains(err.Error(), "unknown command") {
		t.Fatalf("bogus command error = %v", err)
	}
}

func TestGraphExport(t *testing.T) {
	out := filepath.Join(t.TempDir(), "graph.json")
	if err := run([]string{"graph", "-scale", "0.02", "-out", out}); err != nil {
		t.Fatalf("graph export: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "\"nodes\"") || !strings.Contains(string(data), "\"edges\"") {
		t.Fatalf("graph JSON malformed: %.100s", data)
	}
}

func TestCrawlCommand(t *testing.T) {
	if err := run([]string{"crawl", "-scale", "0.02"}); err != nil {
		t.Fatalf("crawl: %v", err)
	}
}

func TestBadFlag(t *testing.T) {
	if err := run([]string{"run", "-nonsense"}); err == nil {
		t.Fatal("bad flag must error")
	}
}

func TestDatasetExport(t *testing.T) {
	out := filepath.Join(t.TempDir(), "data.json")
	if err := run([]string{"dataset", "-scale", "0.02", "-out", out}); err != nil {
		t.Fatalf("dataset export: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "\"mode\":\"public\"") {
		t.Fatalf("expected public mode export: %.80s", data)
	}
	if strings.Contains(string(data), "\"artifact\"") {
		t.Fatal("public export leaked artifacts")
	}
}

func TestServeStoreRequiresSnapshot(t *testing.T) {
	err := run([]string{"serve", "-store", filepath.Join(t.TempDir(), "store")})
	if err == nil || !strings.Contains(err.Error(), "requires -snapshot") {
		t.Fatalf("serve -store without -snapshot: error = %v", err)
	}
}
