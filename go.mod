module dnc

go 1.24
