package sched

import (
	"time"

	"aigre/internal/flow"
)

// Event names of the supervision stream.
const (
	EventAttempt    = "attempt"    // an attempt of a job started
	EventIncident   = "incident"   // a contained flow.Incident during an attempt
	EventRetry      = "retry"      // a failed/degraded attempt will be retried after Backoff
	EventPreempt    = "preempt"    // the watchdog preempted a stuck attempt
	EventTimeout    = "timeout"    // a deadline expired: the attempt's own or the batch's
	EventQuarantine = "quarantine" // the job exhausted its retry budget and was quarantined
	EventDone       = "done"       // the job finished successfully
	EventFail       = "fail"       // the job failed with a permanent, non-retryable error
	EventCancel     = "cancel"     // the job was cancelled from outside (batch/engine shutdown)
)

// Event is one supervision event: what Options.OnEvent receives, the public
// aigre.JobEvent, and one line of a JSONL journal. Seq orders the events of
// one engine even when wall clocks of concurrent jobs collide; Time orders
// events across engines. Job names the job; Attempt is the 1-based attempt
// ordinal; Event is one of the Event* names; Class is the failure class of an
// incident, retry, preemption, own-deadline timeout, failure or quarantine
// (outcomes of an outer shutdown carry none); Detail the human-readable note
// (error text, preemption cause); Backoff the delay before a retry.
type Event struct {
	Seq     int64         `json:"seq"`
	Time    time.Time     `json:"time"`
	Job     string        `json:"job"`
	Attempt int           `json:"attempt,omitempty"`
	Event   string        `json:"event"`
	Class   string        `json:"class,omitempty"`
	Detail  string        `json:"detail,omitempty"`
	Backoff time.Duration `json:"backoff_ns,omitempty"`

	// Incident carries the full contained-failure record of an incident
	// event, so the stream alone reconstructs what degraded and why.
	Incident *flow.Incident `json:"incident,omitempty"`
}

// emit stamps ev with the engine's next sequence number and, when unset, the
// current time, and hands it to Options.OnEvent. Calls are serialized, so the
// sink sees the events in Seq order, one at a time.
func (e *Engine) emit(ev Event) {
	if e.onEvent == nil {
		return
	}
	e.evMu.Lock()
	defer e.evMu.Unlock()
	e.seq++
	ev.Seq = e.seq
	if ev.Time.IsZero() {
		ev.Time = time.Now()
	}
	e.onEvent(ev)
}
