module adascale/benchmark

go 1.22

require adascale v0.0.0

replace adascale => ../
