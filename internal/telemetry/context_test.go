package telemetry

import (
	"context"
	"strings"
	"testing"
)

func TestRequestIDContext(t *testing.T) {
	ctx := context.Background()
	if got := RequestID(ctx); got != "" {
		t.Fatalf("RequestID on empty context = %q", got)
	}
	ctx = WithRequestID(ctx, "req-42")
	if got := RequestID(ctx); got != "req-42" {
		t.Fatalf("RequestID = %q, want req-42", got)
	}
	// Empty ids are not stored: the ambient id survives.
	if got := RequestID(WithRequestID(ctx, "")); got != "req-42" {
		t.Fatalf("RequestID after empty WithRequestID = %q, want req-42", got)
	}
}

func TestStartSpanCarriesRequestID(t *testing.T) {
	reg := NewCapture()
	ctx := NewContext(context.Background(), reg)
	ctx = WithRequestID(ctx, "req-7")
	sp, _ := StartSpan(ctx, "work", "program", "su")
	sp.End()

	var sb strings.Builder
	if err := reg.WriteJSONL(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `"request_id":"req-7"`) {
		t.Errorf("span labels missing request_id:\n%s", out)
	}
	if !strings.Contains(out, `"program":"su"`) {
		t.Errorf("explicit labels lost when request_id is appended:\n%s", out)
	}
}
