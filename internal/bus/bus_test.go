package bus

import (
	"fmt"
	"sync"
	"testing"
)

func collect(s *Sub, n int) []Event {
	out := make([]Event, 0, n)
	for e := range s.C {
		out = append(out, e)
		if len(out) == n {
			break
		}
	}
	return out
}

// TestPublishSubscribeOrder checks that a subscriber sees every event of its
// job, in publish order, with monotonic per-job sequence numbers — and none
// of another job's.
func TestPublishSubscribeOrder(t *testing.T) {
	b := New("boot1")
	s := b.Subscribe("j1", "")
	defer s.Close()
	for i := 0; i < 5; i++ {
		b.Publish("j1", Event{Type: fmt.Sprintf("e%d", i)})
		b.Publish("other", Event{Type: "noise"})
	}
	got := collect(s, 5)
	for i, e := range got {
		if e.Seq != i+1 || e.Type != fmt.Sprintf("e%d", i) || e.Job != "j1" {
			t.Fatalf("event %d: %+v", i, e)
		}
		if e.ID != fmt.Sprintf("boot1-%d", i+1) {
			t.Fatalf("event %d id %q", i, e.ID)
		}
	}
}

// TestResumeExact checks the no-gap no-duplicate resume contract within one
// incarnation: a subscriber that reconnects with its last seen id receives
// exactly the events after it, interleaved correctly with live publishes.
func TestResumeExact(t *testing.T) {
	b := New("boot1")
	for i := 0; i < 4; i++ {
		b.Publish("j", Event{Type: fmt.Sprintf("e%d", i)})
	}
	s1 := b.Subscribe("j", "")
	first := collect(s1, 2) // client saw e0, e1 then disconnected
	s1.Close()

	b.Publish("j", Event{Type: "e4"})
	s2 := b.Subscribe("j", first[len(first)-1].ID)
	defer s2.Close()
	b.Publish("j", Event{Type: "e5"})

	got := collect(s2, 4) // e2, e3 (replay), e4 (missed), e5 (live)
	for i, e := range got {
		if want := fmt.Sprintf("e%d", i+2); e.Type != want || e.Seq != i+3 {
			t.Fatalf("resumed event %d: %+v, want type %s seq %d", i, e, want, i+3)
		}
	}
}

// TestResumeForeignBoot checks the across-restart contract: an id from a
// different incarnation (or garbage) replays the full history instead of
// silently skipping events.
func TestResumeForeignBoot(t *testing.T) {
	b := New("boot2")
	for i := 0; i < 3; i++ {
		b.Publish("j", Event{Type: fmt.Sprintf("e%d", i)})
	}
	for _, last := range []string{"boot1-2", "garbage", "boot2-notanum", "boot2-99"} {
		s := b.Subscribe("j", last)
		want := 3
		if last == "boot2-99" {
			want = 0 // ahead of us: nothing to replay
			s.Close()
			if len(b.hist["j"]) != 3 {
				t.Fatal("history corrupted")
			}
			continue
		}
		got := collect(s, want)
		if len(got) != want || got[0].Type != "e0" {
			t.Fatalf("resume %q: got %d events, want full history", last, len(got))
		}
		s.Close()
	}
}

// TestOverflowCutsSubscriber checks that a stalled subscriber is closed with
// Overflowed set rather than blocking the publisher.
func TestOverflowCutsSubscriber(t *testing.T) {
	b := New("boot")
	s := b.Subscribe("j", "")
	for i := 0; i < subBuffer+10; i++ { // never drained: fills the buffer
		b.Publish("j", Event{Type: "e"})
	}
	n := 0
	for range s.C {
		n++
	}
	if n != subBuffer {
		t.Fatalf("drained %d events, want %d buffered before the cut", n, subBuffer)
	}
	if !s.Overflowed() {
		t.Fatal("overflowed subscriber not flagged")
	}
	// Resubscribing replays what was missed.
	s2 := b.Subscribe("j", fmt.Sprintf("boot-%d", n))
	got := collect(s2, 10)
	if len(got) != 10 || got[0].Seq != subBuffer+1 {
		t.Fatalf("post-overflow resume: %d events, first seq %d", len(got), got[0].Seq)
	}
	s2.Close()
}

// TestConcurrentPublishSubscribe hammers one job from concurrent publishers
// and subscribers under -race; every subscriber must see a gap-free suffix.
func TestConcurrentPublishSubscribe(t *testing.T) {
	b := New("boot")
	const events = 200
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < events/4; i++ {
				b.Publish("j", Event{Type: "e"})
			}
		}()
	}
	var subWG sync.WaitGroup
	for w := 0; w < 4; w++ {
		subWG.Add(1)
		go func() {
			defer subWG.Done()
			s := b.Subscribe("j", "")
			defer s.Close()
			last := 0
			for e := range s.C {
				if e.Seq != last+1 {
					t.Errorf("gap: seq %d after %d", e.Seq, last)
					return
				}
				last = e.Seq
				if last == events {
					return
				}
			}
		}()
	}
	wg.Wait()
	subWG.Wait()
	if h := len(b.hist["j"]); h != events { // every publisher and subscriber has returned
		t.Fatalf("history %d, want %d", h, events)
	}
}
