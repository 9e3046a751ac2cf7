module m(input clk);
endmodule
