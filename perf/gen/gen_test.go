package gen

import "testing"

func TestStreamsAreDeterministicPerSeed(t *testing.T) {
	for _, wl := range Workloads() {
		shape := wl.Shape().Quick()
		hash := func(seed int64, client int) uint64 {
			return NewStream(wl, NewPopulation(shape, seed), seed, client, 2).Hash(5000)
		}
		if hash(1, 0) != hash(1, 0) {
			t.Errorf("%s: same seed, different streams", wl)
		}
		if hash(1, 0) == hash(2, 0) {
			t.Errorf("%s: different seeds, same stream", wl)
		}
		if hash(1, 0) == hash(1, 1) {
			t.Errorf("%s: two clients of one run got the same stream", wl)
		}
	}
}

func TestPopulationSizes(t *testing.T) {
	std := NewPopulation(Std(), 1)
	if n := std.SetupCommits(); n < 8192 || n > 8192+400 {
		t.Errorf("Std takes %d set-up commits; want just over 8192, so the event history and change log are full at the start and set-up spends little time past that point", n)
	}
	scan := NewPopulation(Scan(), 1)
	if n := scan.SetupCommits(); n >= 8192 || n < 7500 {
		t.Errorf("Scan takes %d set-up commits; want just under 8192", n)
	}
	big := 0
	for _, s := range scan.Schemas {
		if len(s.Tables) >= 2000 {
			big++
		}
	}
	if big < 3 {
		t.Errorf("Scan has %d schemas of 2,000 tables, want 3", big)
	}
	for _, p := range []*Population{std, scan} {
		for si, s := range p.Schemas {
			if len(s.Readers) == 0 {
				t.Fatalf("schema %s has no reader: no request could be expected to succeed", s.Full)
			}
			for _, u := range s.Readers {
				if !p.CanRead(si, u) {
					t.Fatalf("CanRead disagrees with Readers on %s", s.Full)
				}
			}
		}
	}
	// Roughly half the schemas are visible to a Scan user.
	seen := 0
	for si := range scan.Schemas {
		if scan.CanRead(si, 0) {
			seen++
		}
	}
	if seen < len(scan.Schemas)/3 || seen > 2*len(scan.Schemas)/3 {
		t.Errorf("user 0 reads %d of %d Scan schemas, want about half", seen, len(scan.Schemas))
	}
}

func TestEveryRevokeHasAGrant(t *testing.T) {
	pop := NewPopulation(Std().Quick(), 3)
	s := NewStream(DDLWrite, pop, 3, 0, 2)
	held := map[string]bool{}
	created := map[string]bool{}
	for i := 0; i < 20000; i++ {
		op := s.Next()
		switch {
		case op.Kind == Grant && op.Revoke:
			if !held[op.Full+"|"+op.Grantee] {
				t.Fatalf("op %d revokes %s from %s, which was never granted", i, op.Full, op.Grantee)
			}
			delete(held, op.Full+"|"+op.Grantee)
		case op.Kind == Grant:
			held[op.Full+"|"+op.Grantee] = true
		case op.Kind == CreateTable:
			created[op.Full+"."+op.Name] = true
		case op.Kind == DeleteAsset:
			if !created[op.Full] {
				t.Fatalf("op %d deletes %s, which this client did not create or already deleted", i, op.Full)
			}
			delete(created, op.Full)
		}
		s.Ack(op)
	}
}

func TestTraceReadWriteShare(t *testing.T) {
	pop := NewPopulation(Std().Quick(), 1)
	s := NewStream(TraceRead, pop, 1, 0, 1)
	writes, n := 0, 200000
	for i := 0; i < n; i++ {
		op := s.Next()
		if op.Kind.Mutating() {
			writes++
		}
		s.Ack(op)
	}
	if share := float64(writes) / float64(n); share < 0.016 || share > 0.020 {
		t.Errorf("writes are %.4f of requests, want 0.018 (98.2%% reads)", share)
	}
}

func TestPrefixCount(t *testing.T) {
	for _, c := range []struct {
		prefix  string
		n, want int
	}{{"t_00", 90, 90}, {"t_01", 90, 0}, {"t_19", 2000, 100}, {"t_012", 2000, 10}, {"t_008", 85, 5}, {"t_20", 2000, 0}} {
		if got := prefixCount(c.prefix, c.n); got != c.want {
			t.Errorf("prefixCount(%q, %d) = %d, want %d", c.prefix, c.n, got, c.want)
		}
	}
}
