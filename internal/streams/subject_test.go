package streams

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
)

func TestMatchSubject(t *testing.T) {
	cases := []struct {
		filter, subject string
		want            bool
	}{
		// Exact subjects: plain tags are one-token subjects, so the
		// paper's exact-tag rendezvous is unchanged.
		{"darshanConnector", "darshanConnector", true},
		{"darshanConnector", "darshanconnector", false},
		{"darshan.posix", "darshan.posix", true},
		{"darshan.posix", "darshan.mpiio", false},
		{"darshan.posix", "darshan", false},
		{"darshan", "darshan.posix", false},
		{"", "", false},
		{"", "x", false},

		// "*" matches exactly one non-empty token.
		{"darshan.*.posix", "darshan.nid00040.posix", true},
		{"darshan.*.posix", "darshan.posix", false},
		{"darshan.*.posix", "darshan.a.b.posix", false},
		{"darshan.*.posix", "darshan..posix", false},
		{"*", "darshan", true},
		{"*", "darshan.posix", false},
		{"*.*", "a.b", true},
		{"*.*", "a", false},
		{"*.*", "a.b.c", false},

		// Trailing ">" matches one or more remaining tokens.
		{"darshan.>", "darshan.posix", true},
		{"darshan.>", "darshan.nid00040.posix", true},
		{"darshan.>", "darshan", false},
		{"darshan.>", "slurm.posix", false},
		{">", "darshan", true},
		{">", "darshan.nid00040.posix", true},
		{">", "", false},

		// Combined.
		{"darshan.*.>", "darshan.nid00040.posix", true},
		{"darshan.*.>", "darshan.nid00040", false},

		// Malformed wildcard filters match nothing; a wildcard-free
		// string degenerates to plain equality (legacy tag rendezvous)
		// even when it is not a well-formed subject.
		{"darshan.>.posix", "darshan.x.posix", false},
		{"darshan..posix", "darshan..posix", true},
		{"darshan..posix", "darshan.x.posix", false},
		{">", ">", true}, // ">" the subject-token is still one token
	}
	for _, c := range cases {
		if got := MatchSubject(c.filter, c.subject); got != c.want {
			t.Errorf("MatchSubject(%q, %q) = %v, want %v", c.filter, c.subject, got, c.want)
		}
	}
}

func TestValidFilter(t *testing.T) {
	valid := []string{"a", "a.b", "*", ">", "a.*", "a.>", "*.*.>", "darshan.*.posix"}
	invalid := []string{"", ".", "a.", ".a", "a..b", ">.a", "a.>.b"}
	for _, f := range valid {
		if !ValidFilter(f) {
			t.Errorf("ValidFilter(%q) = false, want true", f)
		}
	}
	for _, f := range invalid {
		if ValidFilter(f) {
			t.Errorf("ValidFilter(%q) = true, want false", f)
		}
	}
}

func TestHasWildcard(t *testing.T) {
	if HasWildcard("darshan.nid00040.posix") || HasWildcard("darshanConnector") {
		t.Fatal("literal subjects have no wildcard")
	}
	for _, f := range []string{"*", ">", "darshan.*", "darshan.>", "darshan.*.posix"} {
		if !HasWildcard(f) {
			t.Errorf("HasWildcard(%q) = false", f)
		}
	}
	// "*" or ">" inside a token is literal, not a wildcard.
	if HasWildcard("dar*shan") || HasWildcard("a>b") {
		t.Fatal("wildcards are whole tokens only")
	}
}

func TestWildcardSubscription(t *testing.T) {
	b := NewBus()
	var star, tail, exact []string
	b.Subscribe("darshan.*.posix", func(m Message) { star = append(star, m.Tag) })
	b.Subscribe("darshan.>", func(m Message) { tail = append(tail, m.Tag) })
	b.Subscribe("darshan.nid00040.posix", func(m Message) { exact = append(exact, m.Tag) })

	if n := b.Publish(Message{Tag: "darshan.nid00040.posix", Type: TypeString, Data: []byte("x")}); n != 3 {
		t.Fatalf("delivered to %d receivers, want 3", n)
	}
	if n := b.Publish(Message{Tag: "darshan.nid00041.mpiio", Type: TypeString, Data: []byte("x")}); n != 1 {
		t.Fatalf("delivered to %d receivers, want 1 (tail wildcard only)", n)
	}
	if n := b.Publish(Message{Tag: "slurm.job", Type: TypeString, Data: []byte("x")}); n != 0 {
		t.Fatalf("delivered to %d receivers, want 0", n)
	}
	if len(star) != 1 || len(tail) != 2 || len(exact) != 1 {
		t.Fatalf("star=%v tail=%v exact=%v", star, tail, exact)
	}
	if got := b.SubscriberCount("darshan.nid00040.posix"); got != 3 {
		t.Fatalf("SubscriberCount = %d, want 3", got)
	}
	if got := b.SubscriberCount("darshan.x"); got != 1 {
		t.Fatalf("SubscriberCount = %d, want 1", got)
	}
	wantTags := []string{"darshan.*.posix", "darshan.>", "darshan.nid00040.posix"}
	sort.Strings(wantTags)
	if got := b.Tags(); !reflect.DeepEqual(got, wantTags) {
		t.Fatalf("Tags() = %v, want %v", got, wantTags)
	}
}

func TestWildcardSubscriptionClose(t *testing.T) {
	b := NewBus()
	got := 0
	sub := b.Subscribe("darshan.>", func(Message) { got++ })
	b.Publish(Message{Tag: "darshan.a", Type: TypeString, Data: []byte("1")})
	sub.Close()
	sub.Close() // idempotent
	b.Publish(Message{Tag: "darshan.a", Type: TypeString, Data: []byte("2")})
	if got != 1 {
		t.Fatalf("got %d deliveries after close, want 1", got)
	}
	if n := b.SubscriberCount("darshan.a"); n != 0 {
		t.Fatalf("SubscriberCount = %d after close", n)
	}
}

// TestWildcardDeliveryDeterminism pins the fan-out order contract: exact
// subscribers first, then wildcard subscribers in subscription order —
// never a function of map iteration. Many tags and many overlapping
// filters are exercised repeatedly so a map-order dependence would be
// caught (a single run could get lucky; fifty in a row will not).
func TestWildcardDeliveryDeterminism(t *testing.T) {
	for run := 0; run < 50; run++ {
		b := NewBus()
		var order []string
		for i := 0; i < 8; i++ {
			name := fmt.Sprintf("wild%d", i)
			b.Subscribe("darshan.>", func(Message) { order = append(order, name) })
		}
		b.Subscribe("darshan.n.posix", func(Message) { order = append(order, "exact") })
		// Seed the subs map with many tags so its iteration order varies.
		for i := 0; i < 16; i++ {
			b.Subscribe(fmt.Sprintf("noise.%d", i), func(Message) {})
		}
		b.Publish(Message{Tag: "darshan.n.posix", Type: TypeString, Data: []byte("x")})
		want := []string{"exact", "wild0", "wild1", "wild2", "wild3", "wild4", "wild5", "wild6", "wild7"}
		if !reflect.DeepEqual(order, want) {
			t.Fatalf("run %d: delivery order %v, want %v", run, order, want)
		}
	}
}

// TestStreamRoutingDeterminism pins that overlapping bound streams
// receive appends in sorted-name order regardless of bind order (the
// stream set lives in a map; the order must not leak from it).
func TestStreamRoutingDeterminism(t *testing.T) {
	b := NewBus()
	names := []string{"zeta", "alpha", "mid"}
	for _, name := range names {
		s := mustOpenStream(t, StreamConfig{Name: name, Subjects: []string{"darshan.>"}}, nil)
		if err := b.BindStream(s); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.streamNames; !reflect.DeepEqual(got, []string{"alpha", "mid", "zeta"}) {
		t.Fatalf("bound stream names = %v", got)
	}
	b.Publish(Message{Tag: "darshan.n.posix", Type: TypeString, Data: []byte("x")})
	for _, name := range names {
		if st := b.Stream(name).Stats(); st.Appended != 1 {
			t.Fatalf("stream %s appended %d, want 1", name, st.Appended)
		}
	}
}
