module dcatch/benchmark

go 1.24

require dcatch v0.0.0

replace dcatch => ../
