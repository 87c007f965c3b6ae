module github.com/eactors/eactors-go/benchmark

go 1.22

require github.com/eactors/eactors-go v0.0.0

replace github.com/eactors/eactors-go => ../
