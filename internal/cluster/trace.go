package cluster

import "context"

// HeaderRequestID is the trace header of the public HTTP edge: a daemon
// keeps the ID a client sends on it (or stamps a fresh one) and echoes
// it on the response, so one logical query is greppable across the
// router's and every node's logs and debug payloads.
const HeaderRequestID = "X-Vsmart-Request-Id"

// ridKey is the context key carrying the request ID.
type ridKey struct{}

// WithRequestID returns a context carrying a request ID. The router
// sends it inside every node request's frame, and the node's peer loop
// puts it back on the context its backend runs under — the hop's form
// of HeaderRequestID, which the router still accepts and echoes at its
// public edge.
func WithRequestID(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, ridKey{}, id)
}

// RequestID extracts the request ID from ctx ("" when absent).
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(ridKey{}).(string)
	return id
}
