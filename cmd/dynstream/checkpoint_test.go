package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"dynstream"
)

// ckptTestLog is a deterministic 200-update log on 32 vertices: a
// dense-ish insert pattern with periodic deletions, so the replayed
// suffix exercises both signs.
func ckptTestLog() []dynstream.Update {
	var log []dynstream.Update
	var inserted []dynstream.Update
	x := uint64(0x9e3779b97f4a7c15)
	next := func(m int) int {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return int(x % uint64(m))
	}
	for len(log) < 200 {
		u, v := next(32), next(32)
		if u == v {
			continue
		}
		if len(inserted) > 10 && len(log)%9 == 8 {
			del := inserted[len(inserted)-1]
			inserted = inserted[:len(inserted)-1]
			del.Delta = -1
			log = append(log, del)
			continue
		}
		up := dynstream.Update{U: u, V: v, W: 1, Delta: 1}
		log = append(log, up)
		inserted = append(inserted, up)
	}
	return log
}

func updateLine(u dynstream.Update) string {
	sign := "+"
	if u.Delta < 0 {
		sign = "-"
	}
	return fmt.Sprintf("%s %d %d\n", sign, u.U, u.V)
}

// TestReplCheckpointSurvivesKill is the tentpole acceptance test for
// checkpoint/restore: a real `dynstream forest -repl -checkpoint ...`
// process is fed updates over stdin, SIGKILLed mid-stream after a few
// auto-snapshots, and the surviving checkpoint file is restored
// in-process. Replaying the update suffix past the restored offset
// must reproduce, bit for bit, the sketch a cold uninterrupted run
// over the full log produces.
func TestReplCheckpointSurvivesKill(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a real process")
	}
	dir, err := os.MkdirTemp("", "dynckpt")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	ckPath := filepath.Join(dir, "live.ckpt")

	const every = 8
	args := []string{"forest", "-repl", "-n", "32", "-seed", "4",
		"-checkpoint", ckPath, "-every", fmt.Sprint(every)}
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), cliArgsEnv+"="+strings.Join(args, "\x1f"))
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	stderrPipe, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})

	// Count "checkpoint saved" lines as the child emits them.
	var saves atomic.Int64
	go func() {
		sc := bufio.NewScanner(stderrPipe)
		for sc.Scan() {
			if strings.Contains(sc.Text(), "checkpoint saved to") {
				saves.Add(1)
			}
		}
	}()

	log := ckptTestLog()
	written := 0
	deadline := time.Now().Add(30 * time.Second)
	for _, u := range log {
		if _, err := io.WriteString(stdin, updateLine(u)); err != nil {
			t.Fatalf("feeding child after %d updates: %v", written, err)
		}
		written++
		// Once a couple of snapshots exist (and some updates past them
		// are in flight), kill the child without warning.
		if saves.Load() >= 2 && written >= 3*every+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no 2nd checkpoint after %d updates", written)
		}
		time.Sleep(time.Millisecond)
	}
	if saves.Load() < 2 {
		// The child may still be draining stdin; give it a moment.
		for time.Now().Before(deadline) && saves.Load() < 2 {
			time.Sleep(5 * time.Millisecond)
		}
	}
	if saves.Load() < 2 {
		t.Fatalf("only %d checkpoints after %d updates", saves.Load(), written)
	}
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	// Restore the checkpoint the dead process left behind.
	ctx := context.Background()
	f, err := os.Open(ckPath)
	if err != nil {
		t.Fatalf("checkpoint file after kill: %v", err)
	}
	defer f.Close()
	target := dynstream.ForestTarget{Seed: 4}
	h, err := dynstream.Restore(ctx, f, dynstream.NewMemoryStream(32), target)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	off := int(h.AppliedUpdates())
	if off <= 0 || off > written || off%every != 0 {
		t.Fatalf("restored offset %d (wrote %d, every %d)", off, written, every)
	}

	// Replay the suffix and diff against a cold, uninterrupted run.
	if err := h.Apply(log[off:]); err != nil {
		t.Fatalf("replaying suffix [%d:]: %v", off, err)
	}
	cold, err := dynstream.Open(ctx, dynstream.NewMemoryStream(32), target)
	if err != nil {
		t.Fatal(err)
	}
	if err := cold.Apply(log); err != nil {
		t.Fatal(err)
	}
	// The checkpoints hold the sketch state and the applied count
	// (len(log) for both), so equal bytes mean equal sketches.
	var gb, wb bytes.Buffer
	if err := h.Checkpoint(&gb); err != nil {
		t.Fatal(err)
	}
	if err := cold.Checkpoint(&wb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
		t.Fatalf("restored+replayed sketch differs from uninterrupted run (offset %d, %d updates)", off, len(log))
	}
}

// TestReplSaveLoadCommands drives the manual save/load repl commands
// through run(): state saved mid-session and loaded into a fresh
// session must answer queries identically to the original.
func TestReplSaveLoadCommands(t *testing.T) {
	dir, err := os.MkdirTemp("", "dynsave")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	ck := filepath.Join(dir, "s.ckpt")

	script1 := "+ 0 1\n+ 1 2\n+ 2 3\nquery\nsave " + ck + "\nquit\n"
	var out1, err1 bytes.Buffer
	if err := run(context.Background(), []string{"forest", "-repl", "-n", "8", "-seed", "4"},
		strings.NewReader(script1), &out1, &err1); err != nil {
		t.Fatalf("session 1: %v\nstderr: %s", err, err1.String())
	}
	if !strings.Contains(err1.String(), "checkpoint saved to "+ck) {
		t.Fatalf("no save confirmation on stderr: %q", err1.String())
	}

	// Session 2 loads the checkpoint and must answer the same query.
	script2 := "load " + ck + "\nquery\nquit\n"
	var out2, err2 bytes.Buffer
	if err := run(context.Background(), []string{"forest", "-repl", "-n", "8", "-seed", "4"},
		strings.NewReader(script2), &out2, &err2); err != nil {
		t.Fatalf("session 2: %v\nstderr: %s", err, err2.String())
	}
	if !strings.Contains(err2.String(), "restored "+ck+" (3 updates applied)") {
		t.Fatalf("no restore confirmation on stderr: %q", err2.String())
	}
	if out1.String() != out2.String() {
		t.Fatalf("restored session answered differently:\nsession 1: %q\nsession 2: %q", out1.String(), out2.String())
	}

	// A load of a missing path warns and keeps the session alive.
	script3 := "load " + filepath.Join(dir, "nope") + "\n+ 0 1\nquery\nquit\n"
	var out3, err3 bytes.Buffer
	if err := run(context.Background(), []string{"forest", "-repl", "-n", "8", "-seed", "4"},
		strings.NewReader(script3), &out3, &err3); err != nil {
		t.Fatalf("session 3: %v\nstderr: %s", err, err3.String())
	}
	if !strings.Contains(err3.String(), "repl: load:") {
		t.Fatalf("missing-file load did not warn: %q", err3.String())
	}
	if !strings.Contains(out3.String(), "ok ") {
		t.Fatalf("session did not survive the failed load: %q", out3.String())
	}
}

// TestCLICheckpointFlagValidation covers the new flag surfaces: the
// -checkpoint/-every pairing rules and the coord timeout flags.
func TestCLICheckpointFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"forest", "-repl", "-n", "8", "-every", "4"},           // -every without -checkpoint
		{"forest", "-repl", "-n", "8", "-checkpoint", "/tmp/x"}, // -checkpoint without -every
		{"forest", "-checkpoint", "/tmp/x", "-every", "4"},      // checkpointing without -repl
		{"forest", "-repl", "-n", "8", "-checkpoint", "x", "-every", "-1"},
		{"coord", "-remote", "a", "-handshake-timeout", "0s", "forest"},
		{"coord", "-remote", "a", "-handshake-timeout", "-1s", "forest"},
		{"coord", "-remote", "a", "-frame-timeout", "-1s", "forest"},
	} {
		var out, errOut bytes.Buffer
		if err := run(context.Background(), args, strings.NewReader(testStream), &out, &errOut); err == nil {
			t.Errorf("run(%v) accepted invalid flags", args)
		}
	}
}
