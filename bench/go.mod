module github.com/ndflow/ndflow/bench

go 1.24

require github.com/ndflow/ndflow v0.0.0

replace github.com/ndflow/ndflow => ../
