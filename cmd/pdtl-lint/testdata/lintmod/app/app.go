// Package app detaches a callee from its caller's context.
package app

import "context"

// Run hands its callee a fresh context instead of ctx.
func Run(ctx context.Context) error { return work(context.Background()) }

func work(ctx context.Context) error { return ctx.Err() }
