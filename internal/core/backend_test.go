package core

import (
	"errors"
	"testing"

	"tireplay/internal/msgreplay"
	"tireplay/internal/sim"
	"tireplay/internal/trace"
)

func backendConfig(backend string) Config {
	cfg := Config{Backend: backend}
	if backend == MSG {
		cfg.MSG = msgreplay.Config{RefLatency: 1e-5, RefBandwidth: 1e9}
	}
	return cfg
}

// TestMalformedTraceWaitNoRequest covers the wait-with-no-outstanding-request
// path for each backend: it must surface a *TraceError wrapping
// ErrNoOutstandingRequest, not panic.
func TestMalformedTraceWaitNoRequest(t *testing.T) {
	for _, backend := range []string{SMPI, MSG} {
		prov := provFromText(t, "p0 compute 1000\np0 wait\n")
		_, err := Replay(prov, testPlatform(t, 1), backendConfig(backend))
		if err == nil {
			t.Fatalf("%s: expected error for orphan wait", backend)
		}
		var te *TraceError
		if !errors.As(err, &te) {
			t.Fatalf("%s: error %v is not a *TraceError", backend, err)
		}
		if !errors.Is(err, ErrNoOutstandingRequest) {
			t.Fatalf("%s: error %v does not wrap ErrNoOutstandingRequest", backend, err)
		}
		if te.Backend != backend || te.Rank != 0 || te.Kind != trace.Wait {
			t.Fatalf("%s: wrong TraceError fields: %+v", backend, te)
		}
	}
}

// TestMalformedTraceUnsupportedAction covers the unsupported-action-kind path
// for each backend.
func TestMalformedTraceUnsupportedAction(t *testing.T) {
	for _, backend := range []string{SMPI, MSG} {
		prov := trace.NewMemProvider([][]trace.Action{
			{{Rank: 0, Kind: trace.Kind(99)}},
		})
		_, err := Replay(prov, testPlatform(t, 1), backendConfig(backend))
		if err == nil {
			t.Fatalf("%s: expected error for unsupported action", backend)
		}
		var te *TraceError
		if !errors.As(err, &te) {
			t.Fatalf("%s: error %v is not a *TraceError", backend, err)
		}
		if !errors.Is(err, ErrUnsupportedAction) {
			t.Fatalf("%s: error %v does not wrap ErrUnsupportedAction", backend, err)
		}
		if te.Backend != backend || te.Kind != trace.Kind(99) {
			t.Fatalf("%s: wrong TraceError fields: %+v", backend, te)
		}
	}
}

// errStream fails on the first Next call.
type errStream struct{}

func (errStream) Next(*trace.Action) (bool, error) {
	return false, errors.New("boom")
}

type errProvider struct{}

func (errProvider) NumRanks() int                  { return 1 }
func (errProvider) Rank(int) (trace.Stream, error) { return errStream{}, nil }

// TestStreamErrorSurfaces checks that a failing trace stream aborts the
// replay with a wrapped error rather than a panic.
func TestStreamErrorSurfaces(t *testing.T) {
	_, err := Replay(errProvider{}, testPlatform(t, 1), Config{})
	if err == nil {
		t.Fatal("expected error from failing stream")
	}
	var te *TraceError
	if !errors.As(err, &te) {
		t.Fatalf("error %v is not a *TraceError", err)
	}
}

func TestRegistryListsBuiltins(t *testing.T) {
	names := Backends()
	want := map[string]bool{SMPI: false, MSG: false}
	for _, n := range names {
		if _, ok := want[n]; ok {
			want[n] = true
		}
	}
	for n, seen := range want {
		if !seen {
			t.Fatalf("builtin backend %q not registered (got %v)", n, names)
		}
	}
}

func TestLookupDefaultsToSMPI(t *testing.T) {
	b, err := Lookup("")
	if err != nil {
		t.Fatal(err)
	}
	if b != SMPI {
		t.Fatalf("default backend = %q, want smpi", b)
	}
	_, err = Lookup("no-such-backend")
	const want = `core: unknown backend "no-such-backend" (registered: [msg smpi])`
	if err == nil || err.Error() != want {
		t.Fatalf("unknown backend error = %v, want %q", err, want)
	}
}

// TestNilHostRejected maps a rank to a nil host on each backend: the replay
// must fail with an error naming the rank, not panic.
func TestNilHostRejected(t *testing.T) {
	for _, tc := range []struct{ backend, want string }{
		{SMPI, "mpi: nil host for rank 0"},
		{MSG, "msgreplay: nil host for rank 0"},
	} {
		prov := provFromText(t, "p0 compute 1000\n")
		cfg := backendConfig(tc.backend)
		cfg.Hosts = []*sim.Host{nil}
		_, err := Replay(prov, testPlatform(t, 1), cfg)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: err = %v, want %q", tc.backend, err, tc.want)
		}
	}
}
