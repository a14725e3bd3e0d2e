package linalg

// SIMDOn reports to the external tests whether the assembly bodies run.
func SIMDOn() bool { return useSIMD }
