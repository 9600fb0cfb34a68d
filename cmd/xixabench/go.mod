module xixa/cmd/xixabench

go 1.22

require xixa v0.0.0

replace xixa => ../..
