package main

import (
	"flag"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/testkit"
)

// TestShippedConfigMatchesFlags pins testkit.ShippedServeConfig, the
// configuration the "shipped" test lanes run, to edaserved's flag
// defaults: every serve.Config field must have a flag, and its value
// must be that flag's default.
func TestShippedConfigMatchesFlags(t *testing.T) {
	flagOf := map[string]string{
		"MaxBatch":       "max-batch",
		"MaxWait":        "max-wait",
		"MaxInFlight":    "max-inflight",
		"CacheRows":      "cache-rows",
		"RequestTimeout": "request-timeout",
		"DrainTimeout":   "drain-timeout",
	}
	cfg := reflect.ValueOf(testkit.ShippedServeConfig)
	for i := 0; i < cfg.NumField(); i++ {
		field := cfg.Type().Field(i).Name
		name, ok := flagOf[field]
		if !ok {
			t.Errorf("serve.Config.%s has no edaserved flag in this test", field)
			continue
		}
		f := flag.Lookup(name)
		if f == nil {
			t.Errorf("edaserved has no -%s flag", name)
			continue
		}
		if got := fmt.Sprint(cfg.Field(i).Interface()); got != f.DefValue {
			t.Errorf("ShippedServeConfig.%s = %s, but -%s defaults to %s", field, got, name, f.DefValue)
		}
	}
}
