// Package slogdefault plants three rule-4 findings on log/slog's
// process default logger, next to calls the rule leaves alone.
package slogdefault

import (
	"io"
	"log/slog"
)

// Progress logs through the handed-in logger, which rule 4 allows,
// and through the process default, which it flags.
func Progress(logger *slog.Logger) {
	logger.Info("handed-in logger", "n", 1)
	slog.Info("default logger", "n", 1)
	slog.Default().Warn("default logger")
	slog.SetDefault(logger)
}

// Discard builds a logger, which rule 4 leaves alone.
func Discard() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}
