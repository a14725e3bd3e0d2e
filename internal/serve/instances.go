package serve

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
)

// Instances is the decoded "instances" array of a predict body: every
// value in one row-major slice, row i at values[off[i]:off[i+1]]. A
// request whose rows all have the model's width is scored from values
// as it stands, so decoding costs one slice of values and one of
// offsets, not a slice per row.
type Instances struct {
	values []float64
	off    []int // Len()+1 offsets, or none when there are no rows
}

// predictBody is the decode side of PredictRequest: encoding/json checks
// the whole body and matches the key (case-insensitively, skipping
// unknown fields), and Instances parses the value.
type predictBody struct {
	Instances Instances `json:"instances"`
}

// Len returns the number of rows.
func (in Instances) Len() int { return max(len(in.off)-1, 0) }

// Row returns row i, a view into the decoded values.
func (in Instances) Row(i int) []float64 {
	return in.values[in.off[i]:in.off[i+1]:in.off[i+1]]
}

// Rows returns a view of every row.
func (in Instances) Rows() [][]float64 {
	rows := make([][]float64, in.Len())
	for i := range rows {
		rows[i] = in.Row(i)
	}
	return rows
}

// UnmarshalJSON parses the "instances" value: null, which means no
// rows, or an array of arrays of numbers. Each call replaces what an
// earlier one decoded, so under a repeated key the last one wins. A null
// row or value is an error: encoding/json would score a null feature as
// 0, or, under a repeated key, keep the earlier key's value. Numbers go
// through strconv.ParseFloat(s, 64), the call encoding/json makes for a
// float64, so every value is bit-identical to decoding [][]float64, and
// one out of range is an error as it is there.
//
// encoding/json has checked that data is one valid JSON value before it
// calls this, but the scan below still checks every byte it relies on,
// so no input makes it panic.
func (in *Instances) UnmarshalJSON(data []byte) error {
	*in = Instances{}
	s := scan{data: data}
	if s.literal("null") {
		return s.end()
	}
	if !s.eat('[') {
		return errors.New("instances is not an array")
	}
	// Every value but the last is followed by a comma, inside its row or
	// after it, so the commas bound the values without a first parse.
	values := make([]float64, 0, bytes.Count(data, []byte{','})+1)
	off := make([]int, 1, bytes.Count(data, []byte{'['}))
	if !s.eat(']') {
		for i := 0; ; i++ {
			if s.literal("null") {
				return fmt.Errorf("instance %d is null", i)
			}
			if !s.eat('[') {
				return fmt.Errorf("instance %d is not an array", i)
			}
			if !s.eat(']') {
				for j := 0; ; j++ {
					if s.literal("null") {
						return fmt.Errorf("instance %d: value %d is null", i, j)
					}
					num := s.number()
					if len(num) == 0 {
						return fmt.Errorf("instance %d: value %d is not a number", i, j)
					}
					v, err := strconv.ParseFloat(string(num), 64)
					if err != nil {
						return fmt.Errorf("instance %d: value %d: %w", i, j, err)
					}
					values = append(values, v)
					if !s.eat(',') {
						if !s.eat(']') {
							return s.unexpected()
						}
						break
					}
				}
			}
			off = append(off, len(values))
			if !s.eat(',') {
				if !s.eat(']') {
					return s.unexpected()
				}
				break
			}
		}
	}
	if err := s.end(); err != nil {
		return err
	}
	in.values, in.off = values, off
	return nil
}

// scan walks one JSON value. Every method first skips whitespace.
type scan struct {
	data []byte
	i    int
}

func (s *scan) skip() {
	for s.i < len(s.data) {
		switch s.data[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// eat consumes c if it comes next.
func (s *scan) eat(c byte) bool {
	s.skip()
	if s.i < len(s.data) && s.data[s.i] == c {
		s.i++
		return true
	}
	return false
}

// literal consumes lit if it comes next.
func (s *scan) literal(lit string) bool {
	s.skip()
	if bytes.HasPrefix(s.data[s.i:], []byte(lit)) {
		s.i += len(lit)
		return true
	}
	return false
}

// number consumes the bytes a JSON number can hold; ParseFloat judges
// them.
func (s *scan) number() []byte {
	s.skip()
	start := s.i
	for s.i < len(s.data) && numberByte(s.data[s.i]) {
		s.i++
	}
	return s.data[start:s.i]
}

func numberByte(c byte) bool {
	return '0' <= c && c <= '9' || c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E'
}

// end reports an error unless only whitespace is left.
func (s *scan) end() error {
	s.skip()
	if s.i < len(s.data) {
		return s.unexpected()
	}
	return nil
}

func (s *scan) unexpected() error {
	if s.i == len(s.data) {
		return errors.New("instances: unexpected end of input")
	}
	return fmt.Errorf("instances: unexpected %q at offset %d", s.data[s.i], s.i)
}
